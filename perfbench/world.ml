(* The benchmark's world: one router under test and two benchmark
   speakers on one clock, built from the same public calls the
   repository's scenario harness uses (Router, Speaker, Clock, Engine,
   Channel; Event_loop and Tcp_link in live mode). *)

module Clock = Bgp_engine.Clock
module Link = Bgp_engine.Link
module Engine = Bgp_sim.Engine
module Channel = Bgp_netsim.Channel
module Event_loop = Bgp_tcp.Event_loop
module Tcp_link = Bgp_tcp.Tcp_link
module Arch = Bgp_router.Arch
module Router = Bgp_router.Router
module Speaker = Bgp_speaker.Speaker
module Peer = Bgp_route.Peer
module Asn = Bgp_route.Asn
module Ipv4 = Bgp_addr.Ipv4

let router_asn = Asn.of_int 65000
let router_id = Ipv4.of_string_exn "10.255.0.1"
let s1_asn = Asn.of_int 65001
let s1_id = Ipv4.of_string_exn "192.0.2.1"
let s2_asn = Asn.of_int 65002
let s2_id = Ipv4.of_string_exn "192.0.2.2"
let peer1 = Peer.make ~id:0 ~asn:s1_asn ~router_id:s1_id ~addr:s1_id
let peer2 = Peer.make ~id:1 ~asn:s2_asn ~router_id:s2_id ~addr:s2_id

(* The live workload runs the router on an architecture whose modeled
   cycles cost no time: its pace is the OCaml code's, not the xeon cost
   model's scheduled delays. *)
let zero_cost = { Arch.xeon with Arch.clock_hz = 1e15; rtrmgr_period = 0. }

exception Check_failed of string

let check what cond = if not cond then raise (Check_failed what)

(* ------------------------------------------------------------------ *)
(* Recording, for the traced replay                                    *)
(* ------------------------------------------------------------------ *)

type event =
  | Rx of int * string  (* wire bytes a speaker sent the router, by peer id *)
  | Tx of string        (* wire bytes the router sent a speaker *)
  | Up of int           (* session to peer id reached Established *)
  | Down of int         (* session to peer id was lost *)
  | Measure of bool     (* measured phases start / end *)

type log = {
  mutable events : event list;  (* newest first *)
  mutable closed : bool;  (* the round's checked end state was reached *)
}

let new_log () = { events = []; closed = false }

let note log ev =
  Option.iter (fun l -> if not l.closed then l.events <- ev :: l.events) log

(* The recorded events, oldest first.  The log lets go of them, so the
   caller holds the only copy and can drop each one as it is used. *)
let take l =
  let evs = List.rev l.events in
  l.events <- [];
  evs

let recording log ev (link : Link.t) =
  match log with
  | None -> link
  | Some _ ->
    { link with
      Link.send =
        (fun bytes ->
          note log (ev bytes);
          link.Link.send bytes) }

(* Counts every event fired through the clock: the live counterpart of
   [Engine.dispatched]. *)
let counting clock n =
  let wrap f () =
    incr n;
    f ()
  in
  Clock.make ~label:(Clock.label clock)
    ~now:(fun () -> Clock.now clock)
    ~schedule_at:(fun ~time f -> Clock.schedule_at clock ~time (wrap f))
    ~post:(fun f -> Clock.post clock (wrap f))
    ~run_window:(fun ~cond ~step -> Clock.run clock ~cond ~step)

(* ------------------------------------------------------------------ *)
(* The world                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  live : bool;
  clock : Clock.t;
  router : Router.t;
  s1 : Speaker.t;
  s2 : Speaker.t;
  s1_link : Link.t;  (* speaker 1's end, closed for TCP-reset flaps *)
  events : unit -> int;
  dispose : unit -> unit;
  log : log option;
}

let create ?log ?restart_delay ~live () =
  let events_fired = ref 0 in
  let clock, new_pair, events, dispose =
    if live then begin
      let loop = Event_loop.create () in
      let pairs = ref [] in
      let base = Event_loop.clock loop in
      ( (if log = None then base else counting base events_fired),
        (fun () ->
          let p = Tcp_link.pair loop in
          pairs := p :: !pairs;
          (p.Tcp_link.connector, p.Tcp_link.listener)),
        (fun () -> !events_fired),
        fun () ->
          List.iter (fun p -> p.Tcp_link.dispose ()) !pairs;
          Event_loop.stop_watching_all loop )
    end
    else begin
      let engine = Engine.create () in
      Engine.set_event_limit engine 500_000_000;
      ( Engine.clock engine,
        (fun () ->
          let ch = Channel.create engine () in
          (Channel.endpoint ch Channel.A, Channel.endpoint ch Channel.B)),
        (fun () -> Engine.dispatched engine),
        ignore )
    end
  in
  let arch = if live then zero_cost else Arch.xeon in
  let router = Router.create clock arch ~local_asn:router_asn ~router_id in
  let sp1, rt1 = new_pair () in
  let sp2, rt2 = new_pair () in
  let tx bytes = Tx bytes in
  Router.attach_peer ?restart_delay router ~peer:peer1 ~link:(recording log tx rt1);
  Router.attach_peer router ~peer:peer2 ~link:(recording log tx rt2);
  let speaker asn id id_num link =
    Speaker.create clock ~asn ~router_id:id
      ~link:(recording log (fun b -> Rx (id_num, b)) link)
  in
  { live; clock; router;
    s1 = speaker s1_asn s1_id 0 sp1;
    s2 = speaker s2_asn s2_id 1 sp2;
    s1_link = sp1; events; dispose; log }

(* Pump the clock until [cond] holds.  Sim budgets are virtual seconds,
   live ones wall seconds.  Windows stay short (at most 0.5 virtual or
   0.05 wall seconds) so that a measured phase samples the host's speed
   between them often. *)
let wait ?(step = 0.01) w ~what cond =
  let deadline = Clock.now w.clock +. if w.live then 60.0 else 1e6 in
  let longest = if w.live then 0.05 else 0.5 in
  let rec go step =
    if cond () then ()
    else if Clock.now w.clock >= deadline then
      raise (Check_failed ("timed out waiting for " ^ what))
    else begin
      ignore (Clock.run w.clock ~cond ~step);
      Meter.tick ();
      go (Float.min longest (step *. 1.5))
    end
  in
  go step

let establish w sp ~id =
  Speaker.start sp;
  wait w ~what:"session establishment" (fun () -> Speaker.established sp);
  note w.log (Up id)

let received sp = Hashtbl.length (Speaker.received_prefix_set sp)
let transactions w = (Router.counters w.router).Router.transactions
let idle_after w n () = Router.idle w.router && transactions w >= n

let fingerprint w =
  Bgp_rib.Loc_rib.fingerprint (Bgp_rib.Rib_manager.loc_rib (Router.rib w.router))

(* Modeled (virtual-time) transactions per second of the window since
   the last [Router.reset_counters]: a correctness anchor, identical in
   every round of a sim workload. *)
let modeled_tps w =
  let c = Router.counters w.router in
  match c.Router.first_work_at, c.Router.last_transaction_at with
  | Some t0, Some t1 when t1 > t0 ->
    Printf.sprintf "%.3f" (float_of_int c.Router.transactions /. (t1 -. t0))
  | _ -> "-"
