(* Weighted fair queuing across tenants, via stride scheduling.

   Each tenant owns a FIFO queue and a virtual-time "pass"; popping a
   job advances the tenant's pass by cost/weight, and the scheduler
   always serves the non-empty queue with the smallest pass. Over any
   window a backlogged tenant with weight w_i therefore receives
   w_i / sum(w) of the *served cost* — not of the job count: a job's
   [cost] (by default 1.0, in practice the certified gate-bound ×
   shot-bound from {!Qir_analysis.Resource}) is the stride numerator,
   so WFQ is cost-fair rather than job-fair and a tenant of thousand-
   gate circuits cannot monopolize the executor against a tenant of
   three-gate ones by submitting equally often. An idle tenant
   accumulates no credit: when its queue refills, its pass is advanced
   to the current virtual time instead of letting it replay its idle
   period and starve everyone else.

   Every entry carries a monotonically increasing submission sequence
   number, which the load-shedding policy uses to evict the *newest*
   matching job across all tenants ({!drop_last}) — oldest jobs have
   waited longest and keep their place.

   Not thread-safe by itself; the service serializes access. *)

type 'a tenant_q = {
  name : string;
  weight : int;
  jobs : (int * float * 'a) Queue.t; (* (sequence, cost, job) *)
  mutable pass : float; (* virtual time; serve the minimum *)
  mutable served : int;
  mutable served_cost : float; (* total cost popped *)
}

type 'a t = {
  mutable tenants : 'a tenant_q list; (* small, stable order *)
  mutable vtime : float; (* pass of the most recently served tenant *)
  mutable seq : int;
  mutable queued : int;
}

let create () = { tenants = []; vtime = 0.0; seq = 0; queued = 0 }

let length t = t.queued

let tenant_queue t ~tenant ~weight =
  match List.find_opt (fun tq -> tq.name = tenant) t.tenants with
  | Some tq -> tq
  | None ->
    let tq =
      {
        name = tenant;
        weight = max 1 weight;
        jobs = Queue.create ();
        pass = t.vtime;
        served = 0;
        served_cost = 0.0;
      }
    in
    (* append keeps registration order as the deterministic tie-break *)
    t.tenants <- t.tenants @ [ tq ];
    tq

let queued_of t tenant =
  match List.find_opt (fun tq -> tq.name = tenant) t.tenants with
  | Some tq -> Queue.length tq.jobs
  | None -> 0

let served_of t tenant =
  match List.find_opt (fun tq -> tq.name = tenant) t.tenants with
  | Some tq -> tq.served
  | None -> 0

let served_cost_of t tenant =
  match List.find_opt (fun tq -> tq.name = tenant) t.tenants with
  | Some tq -> tq.served_cost
  | None -> 0.0

(* [push] registers the tenant on first use; [weight] is fixed by that
   first registration. [cost] (default 1.0, clamped positive) is the
   certified cost charged against the tenant's stride when the job is
   later popped. Returns the job's sequence number. *)
let push ?(cost = 1.0) t ~tenant ~weight job =
  let cost = if Float.is_nan cost || cost <= 0.0 then 1.0 else cost in
  let tq = tenant_queue t ~tenant ~weight in
  if Queue.is_empty tq.jobs then
    (* returning from idle: join at the current virtual time, keeping
       any credit already earned but never claiming the idle period *)
    tq.pass <- Float.max tq.pass t.vtime;
  let seq = t.seq in
  t.seq <- seq + 1;
  Queue.add (seq, cost, job) tq.jobs;
  t.queued <- t.queued + 1;
  seq

(* The non-empty queue with the smallest pass; first-registered wins
   ties. *)
let next_tenant t =
  List.fold_left
    (fun best tq ->
      if Queue.is_empty tq.jobs then best
      else
        match best with
        | Some b when b.pass <= tq.pass -> best
        | _ -> Some tq)
    None t.tenants

let pop t =
  match next_tenant t with
  | None -> None
  | Some tq ->
    let _, cost, job = Queue.pop tq.jobs in
    t.queued <- t.queued - 1;
    t.vtime <- tq.pass;
    tq.pass <- tq.pass +. (cost /. float_of_int tq.weight);
    tq.served <- tq.served + 1;
    tq.served_cost <- tq.served_cost +. cost;
    Some (tq.name, job)

(* Remove and return the newest queued job satisfying [pred] (the
   highest sequence number across all tenants) — the shedding victim. *)
let drop_last t pred =
  let victim = ref None in
  List.iter
    (fun tq ->
      Queue.iter
        (fun (seq, _, job) ->
          if pred job then
            match !victim with
            | Some (best_seq, _, _) when best_seq >= seq -> ()
            | _ -> victim := Some (seq, tq, job))
        tq.jobs)
    t.tenants;
  match !victim with
  | None -> None
  | Some (seq, tq, job) ->
    let keep = Queue.create () in
    Queue.iter
      (fun (s, c, j) -> if s <> seq then Queue.add (s, c, j) keep)
      tq.jobs;
    Queue.clear tq.jobs;
    Queue.transfer keep tq.jobs;
    t.queued <- t.queued - 1;
    Some job
