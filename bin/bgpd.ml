(* bgpd: a minimal real BGP daemon — the benchmark's Router on a
   zero-cost architecture, over loopback TCP — for loopback
   experiments.

   Example (three terminals):
     bgpd --asn 65101 --router-id 10.0.0.1 --listen 1790 \
          --announce 198.51.100.0/24
     bgpd --asn 65102 --router-id 10.0.0.2 --connect 1790 --listen 1791 \
          --aggregate 198.51.0.0/16,as-set,summary-only
     bgpd --asn 65103 --router-id 10.0.0.3 --connect 1791

   Each daemon prints connection events and, every few seconds, its
   Loc-RIB. *)

open Cmdliner
module Router = Bgp_router.Router
module Link = Bgp_engine.Link
module Loop = Bgp_tcp.Event_loop
module Tcp_link = Bgp_tcp.Tcp_link

(* Seconds an Idle session waits before it is restarted: a listener
   then waits for its neighbor to come back, a connector redials. *)
let restart_delay = 1.0

let conv docv parse print =
  Arg.conv ~docv
    ( (fun s -> Result.map_error (fun e -> `Msg (Printf.sprintf "%S: %s" s e)) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (print v) )

let asn_conv =
  conv "ASN"
    (fun s ->
      match Option.bind (int_of_string_opt s) Bgp_route.Asn.of_int_opt with
      | Some a -> Ok a
      | None -> Error "not an AS number (0-65535)")
    (fun a -> string_of_int (Bgp_route.Asn.to_int a))

let ipv4_conv = conv "IP" Bgp_addr.Ipv4.of_string Bgp_addr.Ipv4.to_string
let prefix_conv = conv "PREFIX" Bgp_addr.Prefix.of_string Bgp_addr.Prefix.to_string

let aggregate_conv =
  let module Rm = Bgp_rib.Rib_manager in
  conv "SPEC"
    (fun spec ->
      match String.split_on_char ',' spec with
      | [] -> Error "empty aggregate spec"
      | prefix :: flags -> (
        match
          ( Bgp_addr.Prefix.of_string prefix,
            List.find_opt (fun f -> f <> "as-set" && f <> "summary-only") flags )
        with
        | Error e, _ -> Error e
        | Ok _, Some f -> Error (Printf.sprintf "unknown aggregate flag %S" f)
        | Ok agg_prefix, None ->
          Ok
            { Rm.agg_prefix;
              agg_as_set = List.mem "as-set" flags;
              agg_summary_only = List.mem "summary-only" flags }))
    (fun a ->
      String.concat ","
        (Bgp_addr.Prefix.to_string a.Rm.agg_prefix
        :: (if a.Rm.agg_as_set then [ "as-set" ] else [])
        @ if a.Rm.agg_summary_only then [ "summary-only" ] else []))

let asn_t =
  let doc = "Local autonomous system number." in
  Arg.(required & opt (some asn_conv) None & info [ "asn" ] ~docv:"ASN" ~doc)

let router_id_t =
  let doc = "BGP identifier (dotted quad)." in
  Arg.(required & opt (some ipv4_conv) None & info [ "router-id" ] ~docv:"IP" ~doc)

let listen_t =
  let doc = "Listen for one neighbor on 127.0.0.1:$(docv) (repeatable)." in
  Arg.(value & opt_all int [] & info [ "listen" ] ~docv:"PORT" ~doc)

let connect_t =
  let doc = "Actively peer with 127.0.0.1:$(docv) (repeatable)." in
  Arg.(value & opt_all int [] & info [ "connect" ] ~docv:"PORT" ~doc)

let listen_client_t =
  let doc =
    "Like --listen, but treat the neighbor as a route-reflection client \
     (RFC 4456; for IBGP neighbors)."
  in
  Arg.(value & opt_all int [] & info [ "listen-client" ] ~docv:"PORT" ~doc)

let connect_client_t =
  let doc = "Like --connect, but treat the neighbor as a reflection client." in
  Arg.(value & opt_all int [] & info [ "connect-client" ] ~docv:"PORT" ~doc)

let announce_t =
  let doc = "Originate $(docv) locally (repeatable)." in
  Arg.(value & opt_all prefix_conv [] & info [ "announce" ] ~docv:"PREFIX" ~doc)

let announce_file_t =
  let doc =
    "Originate every route from a table file: bgpmark text (see \
     Bgp_speaker.Table_io for the format) or an MRT TABLE_DUMP_V2 dump, \
     auto-detected."
  in
  Arg.(value & opt (some string) None & info [ "announce-file" ] ~docv:"FILE" ~doc)

let aggregate_t =
  let doc =
    "Configure an aggregate: PREFIX[,as-set][,summary-only] (repeatable)."
  in
  Arg.(value & opt_all aggregate_conv [] & info [ "aggregate" ] ~docv:"SPEC" ~doc)

let interval_t =
  let doc = "Seconds between Loc-RIB dumps (0 disables)." in
  Arg.(value & opt float 5.0 & info [ "status-interval" ] ~docv:"SECONDS" ~doc)

let log fmt = Printf.ksprintf (fun msg -> Printf.printf "[bgpd] %s\n%!" msg) fmt

(* Report transport events on [link]; a refused dial is not worth a
   line every restart. *)
let logged name (link : Link.t) =
  let up = ref false in
  { link with
    Link.set_on_connected =
      (fun f ->
        link.Link.set_on_connected (fun () ->
            up := true;
            log "%s: connected" name;
            f ()));
    set_on_closed =
      (fun f ->
        link.Link.set_on_closed (fun () ->
            if !up then log "%s: connection closed" name;
            up := false;
            f ())) }

let dump_rib router =
  let routes =
    Bgp_rib.Loc_rib.to_list (Bgp_rib.Rib_manager.loc_rib (Router.rib router))
  in
  Printf.printf "--- loc-rib (%d routes, %d peers up) ---\n"
    (List.length routes)
    (Router.established_peers router);
  List.iter
    (fun r -> Format.printf "  %a@." Bgp_route.Route.pp r)
    (List.sort
       (fun a b ->
         Bgp_addr.Prefix.compare (Bgp_route.Route.prefix a)
           (Bgp_route.Route.prefix b))
       routes);
  flush stdout

let run asn router_id listens connects client_listens client_connects announces
    announce_file aggregates interval =
  let loop = Loop.create () in
  let router =
    Router.create ~aggregates (Loop.clock loop) Bgp_router.Arch.zero_cost
      ~local_asn:asn ~router_id
  in
  let attach ~rr_client ~active port =
    match
      if active then Tcp_link.connect loop ~port else Tcp_link.listen loop ~port
    with
    | e ->
      let name =
        Printf.sprintf "%s 127.0.0.1:%d" (if active then "peer" else "listener") port
      in
      Router.attach_peer ~restart_delay ~active ~rr_client router
        ~link:(logged name e.Tcp_link.link)
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "bgpd: cannot listen on port %d: %s\n" port
        (Unix.error_message err);
      exit 1
  in
  List.iter (attach ~rr_client:false ~active:false) listens;
  List.iter (attach ~rr_client:false ~active:true) connects;
  List.iter (attach ~rr_client:true ~active:false) client_listens;
  List.iter (attach ~rr_client:true ~active:true) client_connects;
  List.iter (fun prefix -> Router.originate router ~prefix) announces;
  Option.iter
    (fun file ->
      match Bgp_speaker.Table_io.load_auto file with
      | Error msg ->
        (* [load_auto] errors already lead with the file name. *)
        prerr_endline ("bgpd: cannot load table: " ^ msg);
        exit 1
      | Ok entries ->
        List.iter
          (fun e ->
            Router.originate router ~prefix:e.Bgp_speaker.Table_io.e_prefix
              ~attrs:(Bgp_speaker.Table_io.to_attrs ~next_hop:router_id e))
          entries;
        log "originated %d routes from %s" (List.length entries) file)
    announce_file;
  if interval > 0.0 then begin
    let rec status () =
      dump_rib router;
      let (_ : unit -> unit) = Loop.after loop interval status in
      ()
    in
    let (_ : unit -> unit) = Loop.after loop interval status in
    ()
  end;
  log "AS%d %s up (listen: %s; connect: %s)" (Bgp_route.Asn.to_int asn)
    (Bgp_addr.Ipv4.to_string router_id)
    (String.concat "," (List.map string_of_int listens))
    (String.concat "," (List.map string_of_int connects));
  (* Run forever (ctrl-C to quit). *)
  ignore (Loop.run loop ~until:(fun () -> false) ~timeout:infinity)

let cmd =
  let doc = "a tiny real BGP daemon built on the bgpmark protocol engine" in
  Cmd.v
    (Cmd.info "bgpd" ~version:"1.0.0" ~doc)
    Term.(
      const run $ asn_t $ router_id_t $ listen_t $ connect_t $ listen_client_t
      $ connect_client_t $ announce_t $ announce_file_t $ aggregate_t
      $ interval_t)

let () = exit (Cmd.eval cmd)
