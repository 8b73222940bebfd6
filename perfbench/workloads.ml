(* The four workloads.  Each call runs one round: a fresh world is set
   up (timed as set-up), the measured phases run with a monotonic clock
   around the public calls that drive them, and every round checks its
   outputs against the workload's oracle. *)

open World
module Prefix_gen = Bgp_addr.Prefix_gen
module Interned = Bgp_route.Attrs.Interned
module Workload = Bgp_speaker.Workload
module Table_io = Bgp_speaker.Table_io
module Rib_manager = Bgp_rib.Rib_manager
module Fib = Bgp_fib.Fib
module Fsm = Bgp_fsm.Fsm
module Msg = Bgp_wire.Msg

type config = {
  workload : string;
  seed : int;
  n : int;  (* table prefixes *)
  probe : int;  (* single-prefix UPDATEs timed for latency *)
  tiny : bool;  (* the benchmark's own tests: every size shrunk *)
  corrupt : bool;  (* off-by-one FIB oracle, to test failure counting *)
}

(* peer-flap: session losses per round. *)
let flaps = 2

(* Traced run: base size of the peer_down growth probe. *)
let growth_n cfg = if cfg.tiny then 200 else 2000

(* Exact work counts of the measured phases, read from each layer's
   public stats. *)
type counts = {
  mutable msgs : int;
  mutable events : int;
  mutable decisions : int;
  mutable fastpath : int;
  mutable interns : int;
  mutable hits : int;
  mutable fib_deltas : int;
}

type round = {
  setup_wall_s : float;
  setup_s : float;  (* rescaled to the reference host *)
  span : Meter.span;  (* the measured throughput phases *)
  mutable tx : int;
  mutable latency_us : float array;
  mutable latency_norm_us : float array;  (* rescaled to the reference host *)
  mutable late_us : float array;  (* live generator lateness *)
  mutable failover_s : float list;
  mutable fingerprint : string;
  mutable fib_end : int;
  mutable modeled : string list;  (* modeled tps per phase, sim only *)
  counts : counts;
}

let new_round (setup_wall_s, setup_s) =
  { setup_wall_s; setup_s; span = Meter.span (); tx = 0; latency_us = [||]; latency_norm_us = [||];
    late_us = [||];
    failover_s = []; fingerprint = ""; fib_end = 0; modeled = [];
    counts =
      { msgs = 0; events = 0; decisions = 0; fastpath = 0; interns = 0;
        hits = 0; fib_deltas = 0 } }

(* The paper's large packets, and the live open loop's rate (UPDATE/s). *)
let packing = 500
let rate = 5000.0

let fib_ops w =
  let s = Fib.stats (Router.fib w.router) in
  s.Fib.adds + s.Fib.replaces + s.Fib.withdraws

(* One measured phase worth [tx] prefix transactions. *)
let phase w r ~tx f =
  Router.reset_counters w.router;
  let ev0 = w.events () and fib0 = fib_ops w in
  let a0 = Interned.stats () in
  Meter.measure r.span f;
  let a1 = Interned.stats () in
  let c = Router.counters w.router in
  let rs = Rib_manager.stats (Router.rib w.router) in
  let k = r.counts in
  k.msgs <- k.msgs + c.Router.msgs_rx + c.Router.msgs_tx;
  k.events <- k.events + (w.events () - ev0);
  k.decisions <- k.decisions + rs.Rib_manager.decisions_run;
  k.fastpath <- k.fastpath + rs.Rib_manager.decision_fastpath;
  k.interns <- k.interns + (a1.Interned.interns - a0.Interned.interns);
  k.hits <- k.hits + (a1.Interned.hits - a0.Interned.hits);
  k.fib_deltas <- k.fib_deltas + (fib_ops w - fib0);
  r.tx <- r.tx + tx;
  if not w.live then r.modeled <- modeled_tps w :: r.modeled

let fib_size cfg w =
  Fib.size (Router.fib w.router) + if cfg.corrupt then 1 else 0

let s1_attrs len =
  Workload.attrs ~speaker_asn:s1_asn ~next_hop:s1_id ~path_len:len ()

(* [k] distinct prefixes outside [table], from the seed's second
   stream. *)
let fresh_prefixes ~seed ~k table =
  let taken = Hashtbl.create (Array.length table) in
  Array.iter (fun p -> Hashtbl.replace taken p ()) table;
  let pool = Prefix_gen.table ~seed:(seed + 1_000_003) ~n:(2 * k) () in
  let fresh = List.filter (fun p -> not (Hashtbl.mem taken p)) (Array.to_list pool) in
  check "enough fresh probe prefixes" (List.length fresh >= k);
  Array.of_list (List.filteri (fun i _ -> i < k) fresh)

(* The i-th probe UPDATE: prefix i/3 is announced, re-announced with
   another path, then withdrawn, so a third of the UPDATEs are new
   prefixes, a third path changes and a third withdrawals. *)
let send_probe w fresh a b i =
  let p = [| fresh.(i / 3) |] in
  match i mod 3 with
  | 0 -> ignore (Speaker.announce w.s1 ~packing:1 ~attrs:a p)
  | 1 -> ignore (Speaker.announce w.s1 ~packing:1 ~attrs:b p)
  | _ -> ignore (Speaker.withdraw w.s1 ~packing:1 p)

(* Sim latency: closed loop, one UPDATE outstanding, each timed from
   send until the router has booked its transaction and gone idle. *)
let sim_probe cfg w r table =
  let fib_before = Fib.size (Router.fib w.router) in
  let fresh = fresh_prefixes ~seed:cfg.seed ~k:((cfg.probe + 2) / 3) table in
  let a = s1_attrs 4 and b = s1_attrs 5 in
  let lat = Array.make cfg.probe 0.0 in
  let kernel = Array.make ((cfg.probe + Meter.latency_block - 1) / Meter.latency_block) 0.0 in
  for i = 0 to cfg.probe - 1 do
    if i mod Meter.latency_block = 0 then
      kernel.(i / Meter.latency_block) <- Meter.kernel_sample ();
    let before = transactions w in
    let t0 = Meter.now_ns () in
    send_probe w fresh a b i;
    wait ~step:0.001 w ~what:"probe UPDATE" (idle_after w (before + 1));
    lat.(i) <- Meter.secs_since t0 *. 1e6
  done;
  r.latency_us <- lat;
  r.latency_norm_us <- Meter.normalize lat kernel;
  check "FIB back to its size after the latency probe" (fib_size cfg w = fib_before)

(* The round's end state, which the traced replay must reach.  Recording
   stops here: the latency probe that may follow is not replayed. *)
let finish w r =
  r.fingerprint <- fingerprint w;
  r.fib_end <- Fib.size (Router.fib w.router);
  Option.iter (fun l -> l.closed <- true) w.log

(* ------------------------------------------------------------------ *)
(* fulltable                                                           *)
(* ------------------------------------------------------------------ *)

(* An Internet-shaped table, grouped by attributes (one UPDATE carries
   one attribute set), groups in arena-id order. *)
let table_groups ~seed ~n =
  let entries = Table_io.synthesize ~seed ~n ~speaker_asn:s1_asn () in
  let groups = Interned.Tbl.create 64 in
  List.iter
    (fun e ->
      let h = Interned.intern (Table_io.to_attrs ~next_hop:s1_id e) in
      let ps = Option.value ~default:[] (Interned.Tbl.find_opt groups h) in
      Interned.Tbl.replace groups h (e.Table_io.e_prefix :: ps))
    entries;
  let groups =
    Interned.Tbl.fold (fun h ps acc -> (h, Array.of_list (List.rev ps)) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> Interned.compare_id a b)
  in
  (Array.of_list (List.map (fun e -> e.Table_io.e_prefix) entries), groups)

let fulltable cfg log =
  let setup = Meter.stopwatch () in
  let n = cfg.n in
  let table, groups = table_groups ~seed:cfg.seed ~n in
  let shorter = Workload.attrs ~speaker_asn:s2_asn ~next_hop:s2_id ~path_len:1 () in
  let w = create ?log ~live:false () in
  Fun.protect ~finally:w.dispose @@ fun () ->
  establish w w.s1 ~id:0;
  establish w w.s2 ~id:1;
  let r = new_round (setup ()) in
  let fib0 = Fib.stats (Router.fib w.router) in
  note log (Measure true);
  phase w r ~tx:n (fun () ->
      List.iter
        (fun (h, ps) ->
          ignore (Speaker.announce w.s1 ~packing ~attrs:(Interned.value h) ps))
        groups;
      wait w ~what:"table load" (fun () -> idle_after w n () && received w.s2 = n));
  check "phase 1: FIB holds the table" (fib_size cfg w = n);
  phase w r ~tx:n (fun () ->
      ignore (Speaker.announce w.s2 ~packing ~attrs:shorter table);
      wait w ~what:"shorter paths" (fun () ->
          idle_after w n () && received w.s1 = n && received w.s2 = 0));
  check "phase 2: FIB holds the table" (fib_size cfg w = n);
  phase w r ~tx:n (fun () ->
      ignore (Speaker.withdraw w.s2 ~packing table);
      wait w ~what:"withdrawals" (fun () ->
          idle_after w n () && received w.s2 = n && received w.s1 = 0));
  note log (Measure false);
  let fib1 = Fib.stats (Router.fib w.router) in
  check "FIB holds the table" (fib_size cfg w = n);
  check "speaker 2 holds the table" (received w.s2 = n);
  check "n adds, 2n replaces, no removals"
    (fib1.Fib.adds - fib0.Fib.adds = n
    && fib1.Fib.replaces - fib0.Fib.replaces = 2 * n
    && fib1.Fib.withdraws = fib0.Fib.withdraws);
  finish w r;
  sim_probe cfg w r table;
  r

(* ------------------------------------------------------------------ *)
(* small-updates                                                       *)
(* ------------------------------------------------------------------ *)

let small_updates cfg log =
  let setup = Meter.stopwatch () in
  let n = cfg.n in
  let table = Prefix_gen.table ~seed:cfg.seed ~n () in
  let attrs = s1_attrs 3 in
  let w = create ?log ~live:false () in
  Fun.protect ~finally:w.dispose @@ fun () ->
  establish w w.s1 ~id:0;
  let r = new_round (setup ()) in
  let fib0 = Fib.stats (Router.fib w.router) in
  note log (Measure true);
  phase w r ~tx:n (fun () ->
      ignore (Speaker.announce w.s1 ~packing:1 ~attrs table);
      wait w ~what:"single-prefix announcements" (idle_after w n));
  check "FIB holds the table" (fib_size cfg w = n);
  phase w r ~tx:n (fun () ->
      ignore (Speaker.withdraw w.s1 ~packing:1 table);
      wait w ~what:"single-prefix withdrawals" (idle_after w n));
  note log (Measure false);
  let fib1 = Fib.stats (Router.fib w.router) in
  check "FIB emptied" (fib_size cfg w = 0);
  check "speaker 2 received nothing" (received w.s2 = 0);
  check "n adds, n removals"
    (fib1.Fib.adds - fib0.Fib.adds = n && fib1.Fib.withdraws - fib0.Fib.withdraws = n);
  finish w r;
  sim_probe cfg w r table;
  r

(* ------------------------------------------------------------------ *)
(* peer-flap                                                           *)
(* ------------------------------------------------------------------ *)

let peer_flap cfg log =
  let setup = Meter.stopwatch () in
  let n = cfg.n in
  let table = Prefix_gen.table ~seed:cfg.seed ~n () in
  let attrs = s1_attrs 3 in
  let w = create ?log ~restart_delay:0.05 ~live:false () in
  Fun.protect ~finally:w.dispose @@ fun () ->
  establish w w.s1 ~id:0;
  establish w w.s2 ~id:1;
  ignore (Speaker.announce w.s1 ~packing ~attrs table);
  wait w ~what:"table load" (fun () -> idle_after w n () && received w.s2 = n);
  let r = new_round (setup ()) in
  (* Failover ends when the last withdrawal reaches speaker 2. *)
  let lost_at = ref 0 and drained_at = ref 0 in
  Speaker.set_update_observer w.s2 (fun _ ->
      if !lost_at > 0 && !drained_at = 0 && received w.s2 = 0 then
        drained_at := Meter.now_ns ());
  let fib0 = Fib.stats (Router.fib w.router) in
  note log (Measure true);
  for k = 1 to flaps do
    phase w r ~tx:(2 * n) (fun () ->
        drained_at := 0;
        lost_at := Meter.now_ns ();
        (* Alternate an unsolicited TCP reset with an orderly CEASE. *)
        if k mod 2 = 1 then w.s1_link.Link.close () else Speaker.stop w.s1;
        wait w ~what:"speaker teardown" (fun () -> Speaker.state w.s1 = Fsm.Idle);
        wait w ~what:"flush and session rearm" (fun () ->
            Router.idle w.router
            && Router.session_state w.router peer1 = Fsm.Active
            && !drained_at > 0);
        note log (Down 0);
        establish w w.s1 ~id:0;
        ignore (Speaker.announce w.s1 ~packing ~attrs table);
        wait w ~what:"re-convergence" (fun () ->
            idle_after w n () && received w.s2 = n));
    r.failover_s <- (float_of_int (!drained_at - !lost_at) *. 1e-9) :: r.failover_s;
    check "FIB restored" (fib_size cfg w = n)
  done;
  note log (Measure false);
  let fib1 = Fib.stats (Router.fib w.router) in
  check "every flap flushed and re-installed the table"
    (fib1.Fib.withdraws - fib0.Fib.withdraws = flaps * n
    && fib1.Fib.adds - fib0.Fib.adds = flaps * n);
  check "speaker 2 holds the table" (received w.s2 = n);
  finish w r;
  sim_probe cfg w r table;
  r

(* ------------------------------------------------------------------ *)
(* live-tcp                                                            *)
(* ------------------------------------------------------------------ *)

let live_tcp cfg log =
  let setup = Meter.stopwatch () in
  let n = cfg.n in
  let table = Prefix_gen.table ~seed:cfg.seed ~n () in
  let a3 = s1_attrs 3 and a4 = s1_attrs 4 in
  let w = create ?log ~live:true () in
  Fun.protect ~finally:w.dispose @@ fun () ->
  establish w w.s1 ~id:0;
  establish w w.s2 ~id:1;
  ignore (Speaker.announce w.s1 ~packing ~attrs:a3 table);
  wait w ~what:"table load" (fun () -> Router.idle w.router && received w.s2 = n);
  let r = new_round (setup ()) in
  (* Burst: every prefix changes path, one prefix per UPDATE, unpaced. *)
  let arrived = ref 0 in
  Speaker.set_update_observer w.s2 (fun u ->
      arrived := !arrived + List.length u.Msg.nlri);
  note log (Measure true);
  phase w r ~tx:n (fun () ->
      ignore (Speaker.announce w.s1 ~packing:1 ~attrs:a4 table);
      wait w ~what:"path-change burst" (fun () -> !arrived >= n));
  note log (Measure false);
  check "every path change reached speaker 2" (!arrived = n && received w.s2 = n);
  (* Paced: open loop at [rate], each UPDATE timed from its due time to
     its arrival at speaker 2.  One timer is armed at a time. *)
  let k = cfg.probe in
  let fresh = fresh_prefixes ~seed:cfg.seed ~k:((k + 2) / 3) table in
  let a = s1_attrs 4 and b = s1_attrs 5 in
  let due = Array.make k 0.0 and lat = Array.make k 0.0 in
  let kernel = Array.make ((k + Meter.latency_block - 1) / Meter.latency_block) 0.0 in
  let late = Array.make k 0.0 in
  let pending = Hashtbl.create 64 and landed = ref 0 in
  (* The host's speed is sampled once per block of arrivals, after an
     arrival is timed and before the next send is due. *)
  let arrive p =
    match Hashtbl.find_opt pending p with
    | Some (i :: rest) ->
      if rest = [] then Hashtbl.remove pending p else Hashtbl.replace pending p rest;
      lat.(i) <- (Clock.now w.clock -. due.(i)) *. 1e6;
      if !landed mod Meter.latency_block = 0 then
        kernel.(!landed / Meter.latency_block) <- Meter.kernel_sample ();
      incr landed
    | _ -> ()
  in
  Speaker.set_update_observer w.s2 (fun u ->
      List.iter arrive u.Msg.withdrawn;
      List.iter arrive u.Msg.nlri);
  let start = Clock.now w.clock +. 0.01 in
  for i = 0 to k - 1 do
    due.(i) <- start +. (float_of_int i /. rate)
  done;
  let rec fire i () =
    late.(i) <- (Clock.now w.clock -. due.(i)) *. 1e6;
    let p = fresh.(i / 3) in
    Hashtbl.replace pending p
      (Option.value ~default:[] (Hashtbl.find_opt pending p) @ [ i ]);
    send_probe w fresh a b i;
    if i + 1 < k then ignore (Clock.schedule_at w.clock ~time:due.(i + 1) (fire (i + 1)))
  in
  ignore (Clock.schedule_at w.clock ~time:due.(0) (fire 0));
  wait w ~what:"paced UPDATEs" (fun () -> !landed >= k);
  check "every paced UPDATE arrived" (!landed = k);
  check "FIB holds the table" (fib_size cfg w = n);
  r.latency_us <- lat;
  r.latency_norm_us <- Meter.normalize lat kernel;
  r.late_us <- late;
  finish w r;
  r

let run cfg log =
  Interned.clear ();
  match cfg.workload with
  | "fulltable" -> fulltable cfg log
  | "small-updates" -> small_updates cfg log
  | "peer-flap" -> peer_flap cfg log
  | "live-tcp" -> live_tcp cfg log
  | w -> invalid_arg ("unknown workload " ^ w)

let names = [ "fulltable"; "small-updates"; "peer-flap"; "live-tcp" ]
