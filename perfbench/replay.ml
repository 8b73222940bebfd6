(* The traced replay: a round's recorded inputs pushed again through
   each layer's public functions, one call at a time, each call timed
   and its allocation recorded.  The replayed Rib_manager must reach
   the Loc-RIB fingerprint of the end-to-end run, which shows the
   replay did the same work. *)

open World
module Codec = Bgp_wire.Codec
module Msg = Bgp_wire.Msg
module Framer = Bgp_fsm.Framer
module Rib_manager = Bgp_rib.Rib_manager
module Fib = Bgp_fib.Fib
module Interned = Bgp_route.Attrs.Interned

type layer = { mutable ns : int; mutable bytes : float; mutable units : int }

let layer () = { ns = 0; bytes = 0.0; units = 0 }

let timed l units f =
  let b0 = Meter.alloc_bytes () in
  let t0 = Meter.now_ns () in
  let r = f () in
  let t1 = Meter.now_ns () in
  let b1 = Meter.alloc_bytes () in
  l.ns <- l.ns + (t1 - t0);
  l.bytes <- l.bytes +. (b1 -. b0 -. Meter.alloc_bracket_bytes);
  l.units <- l.units + units;
  r

let ns_per l = if l.units = 0 then 0.0 else float_of_int l.ns /. float_of_int l.units
let b_per l = if l.units = 0 then 0.0 else l.bytes /. float_of_int l.units

type t = {
  framer : layer;  (* Framer.feed + Framer.next, per message *)
  decode : layer;  (* Codec.decode, per message *)
  encode : layer;  (* Codec.encode of every message either side sent *)
  rib_update : layer;  (* Rib_manager withdraw/announce_group/export_full, per prefix *)
  peer_down : layer;  (* Rib_manager.peer_down, per flushed prefix *)
  fib : layer;  (* Fib.apply, per delta *)
  tcp : layer;  (* inbound byte stream through a Tcp_link pair, per message *)
  fingerprint : string;
  fib_size : int;
}

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let decode_exn bytes =
  match Codec.decode bytes with
  | Ok m -> m
  | Error e -> failf "replay: undecodable message (%s)" (Format.asprintf "%a" Msg.pp_error e)

(* Push [msgs] through a fresh loopback Tcp_link pair; the layer
   records the wall time from the first send to the last byte read. *)
let tcp_replay l msgs =
  let loop = Event_loop.create () in
  let p = Tcp_link.pair loop in
  Fun.protect
    ~finally:(fun () ->
      p.Tcp_link.dispose ();
      Event_loop.stop_watching_all loop)
  @@ fun () ->
  let total = List.fold_left (fun a m -> a + String.length m) 0 msgs in
  let got = ref 0 and up = ref false in
  p.Tcp_link.listener.Link.set_receiver (fun b -> got := !got + String.length b);
  p.Tcp_link.connector.Link.set_on_connected (fun () -> up := true);
  p.Tcp_link.connector.Link.start_connect ();
  if not (Event_loop.run loop ~until:(fun () -> !up) ~timeout:10.0) then
    failf "replay: loopback connect timed out";
  let send = p.Tcp_link.connector.Link.send in
  timed l (List.length msgs) (fun () ->
      List.iter send msgs;
      if not (Event_loop.run loop ~until:(fun () -> !got >= total) ~timeout:60.0)
      then failf "replay: loopback stream stalled")

(* The byte stream the speakers sent the router in the measured phases. *)
let measured_inbound events =
  let measuring = ref false in
  List.filter_map
    (function
      | Measure b -> measuring := b; None
      | Rx (_, bytes) when !measuring -> Some bytes
      | _ -> None)
    events

(* [events] must be the only copy of the recording (see World.take):
   each event is dropped once replayed, so that the heap under a timed
   call holds what is left to replay, not the whole round. *)
let run events =
  let tcp = layer () in
  tcp_replay tcp (measured_inbound events);
  Interned.clear ();
  let t =
    { framer = layer (); decode = layer (); encode = layer ();
      rib_update = layer (); peer_down = layer (); fib = layer ();
      tcp; fingerprint = ""; fib_size = 0 }
  in
  let rib = Rib_manager.create ~local_asn:router_asn ~router_id () in
  Rib_manager.add_peer ~up:false rib peer1;
  Rib_manager.add_peer ~up:false rib peer2;
  let fib = Fib.create () in
  let framers = [| Framer.create (); Framer.create () |] in
  let peer id = if id = 0 then peer1 else peer2 in
  let measuring = ref false in
  let on l units f = if !measuring then timed l units f else f () in
  let apply deltas =
    List.iter (fun d -> ignore (on t.fib 1 (fun () -> Fib.apply fib d))) deltas
  in
  let rx id bytes =
    let m = on t.decode 1 (fun () -> decode_exn bytes) in
    ignore (on t.encode 1 (fun () -> Codec.encode m));
    let fr = framers.(id) in
    on t.framer 1 (fun () ->
        Framer.feed fr bytes;
        let rec drain () =
          match Framer.next fr with
          | Framer.Msg _ -> drain ()
          | Framer.Need_more -> ()
          | Framer.Error _ -> failf "replay: framer rejected the stream"
        in
        drain ());
    match m with
    | Msg.Update u ->
      let from = peer id in
      let deltas = ref [] in
      let absorb (o : Rib_manager.outcome) =
        deltas := List.rev_append o.Rib_manager.fib_deltas !deltas
      in
      List.iter
        (fun p -> absorb (on t.rib_update 1 (fun () -> Rib_manager.withdraw rib ~from p)))
        u.Msg.withdrawn;
      Option.iter
        (fun h ->
          on t.rib_update (List.length u.Msg.nlri) (fun () ->
              Rib_manager.announce_group rib ~from ~each:(fun _ o -> absorb o) u.Msg.nlri h))
        u.Msg.attrs;
      apply (List.rev !deltas)
    | _ -> ()
  in
  List.iter
    (function
      | Measure b -> measuring := b
      | Up id ->
        let p = peer id in
        Rib_manager.set_peer_up rib p true;
        ignore (on t.rib_update 0 (fun () -> Rib_manager.export_full rib p))
      | Down id ->
        let p = peer id in
        let flushed = Rib_manager.adj_in_size rib p in
        (* A flush is GC-heavy: time it on a compacted heap, as the
           end-to-end round starts on one. *)
        if !measuring then Gc.compact ();
        let o = on t.peer_down flushed (fun () -> Rib_manager.peer_down rib p) in
        apply o.Rib_manager.fib_deltas
      | Tx bytes ->
        if !measuring then begin
          let m = decode_exn bytes in
          ignore (timed t.encode 1 (fun () -> Codec.encode m))
        end
      | Rx (id, bytes) -> rx id bytes)
    events;
  { t with
    fingerprint = Bgp_rib.Loc_rib.fingerprint (Rib_manager.loc_rib rib);
    fib_size = Fib.size fib }

(* ------------------------------------------------------------------ *)
(* peer_down growth probe                                              *)
(* ------------------------------------------------------------------ *)

(* One Rib_manager.peer_down of a peer holding [n] prefixes, with a
   second peer up to receive the withdrawals: (ns, bytes). *)
let peer_down_once ~seed n =
  let rib = Rib_manager.create ~local_asn:router_asn ~router_id () in
  Rib_manager.add_peer rib peer1;
  Rib_manager.add_peer rib peer2;
  let table = Bgp_addr.Prefix_gen.table ~seed ~n () in
  let h =
    Interned.intern
      (Bgp_speaker.Workload.attrs ~speaker_asn:s1_asn ~next_hop:s1_id ~path_len:3 ())
  in
  Rib_manager.announce_group rib ~from:peer1 ~each:(fun _ _ -> ()) (Array.to_list table) h;
  let l = layer () in
  ignore (timed l n (fun () -> Rib_manager.peer_down rib peer1));
  l

(* Total-time ratio of peer_down at 4n over n: about 4 for a linear
   flush, 16 or more for a quadratic one (its garbage grows as fast),
   whatever the host's speed. *)
let peer_down_growth ~seed n =
  let small = List.init 3 (fun _ -> peer_down_once ~seed n) in
  let large = peer_down_once ~seed (4 * n) in
  let med = Meter.median_l (List.map (fun l -> float_of_int l.ns) small) in
  let at_n = List.find (fun l -> float_of_int l.ns = med) small in
  (at_n, float_of_int large.ns /. med)
