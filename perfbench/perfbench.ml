(* perfbench: the repository's wall-clock benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [sizes]

   A run is a sequence of rounds of one workload in this process: one
   checked warm-up round is discarded, then rounds repeat until about
   [seconds] have been measured.  A calibration kernel is sampled
   throughout every measured phase (see Meter).  With --trace 0 the run prints the end-to-end
   metrics (medians of rounds); with --trace 1 it prints the per-layer
   metrics: exact counts from the layers' public stats, and ns and
   bytes per unit from a replay of one recorded round through each
   layer.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  perfbench/run.py
   builds this program and passes it the workload sizes. *)

module W = Workloads

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let n = ref 10_000
let probe = ref 10_200
let tiny = ref false
let corrupt = ref false

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " W.names);
    ("--seed", Arg.Set_int seed, "N  input seed");
    ("--seconds", Arg.Set_float seconds, "S  measured time per run");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ("--n", Arg.Set_int n, "N  table prefixes");
    ("--probe", Arg.Set_int probe, "N  single-prefix UPDATEs timed for latency");
    ("--tiny", Arg.Set tiny, " tiny sizes for the benchmark's own tests");
    ("--corrupt-oracle", Arg.Set corrupt, " off-by-one FIB oracle (tests failure counting)") ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_list xs = "[" ^ String.concat ", " (List.map json_num xs) ^ "]"
let json_obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs) ^ "}"

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable anchor : (string * string list) option;  (* fingerprint, modeled tps *)
}

let tally = { attempted = 0; failed = 0; errors = []; anchor = None }

let fail msg =
  tally.failed <- tally.failed + 1;
  if not (List.mem msg tally.errors) then tally.errors <- msg :: tally.errors

(* One checked round.  Its fingerprint and modeled tps must equal the
   first passing round's. *)
let attempt cfg log =
  tally.attempted <- tally.attempted + 1;
  match W.run cfg log with
  | exception World.Check_failed msg -> fail msg; None
  | r -> (
    let mine = (r.W.fingerprint, List.rev r.W.modeled) in
    match tally.anchor with
    | None -> tally.anchor <- Some mine; Some r
    | Some a when a = mine -> Some r
    | Some _ -> fail "Loc-RIB fingerprint or modeled tps differs between rounds"; None)

(* Warm-up, then measured rounds until [budget] seconds have gone by. *)
let rounds cfg ~budget ~min =
  ignore (attempt cfg None);
  let t0 = Meter.now_ns () in
  let kept = ref [] and tries = ref 0 and last = ref 0.0 in
  while !tries < min || (Meter.secs_since t0 +. !last <= budget && !tries < 200) do
    Gc.compact ();
    let ts = Meter.now_ns () in
    Option.iter (fun r -> kept := r :: !kept) (attempt cfg None);
    incr tries;
    last := Meter.secs_since ts
  done;
  List.rev !kept

let med f rs = Meter.median_l (List.map f rs)
let per_tx r x = x /. float_of_int r.W.tx
let wall_s r = float_of_int r.W.span.Meter.wall_ns *. 1e-9
let tps r = float_of_int r.W.tx /. wall_s r

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

let end_to_end cfg =
  let rs = rounds cfg ~budget:!seconds ~min:3 in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  (* Latency quantile of a round, raw or rescaled to the reference host. *)
  let lat ?(norm = false) p r =
    Meter.quantile (if norm then r.W.latency_norm_us else r.W.latency_us) p
  in
  let ref_tps r = float_of_int r.W.tx /. (r.W.span.Meter.ref_ns *. 1e-9) in
  let metrics =
    if rs = [] then []
    else
      [ ("tx_per_s_norm", med ref_tps rs, "1/s");
        ("setup_s", med (fun r -> r.W.setup_s) rs, "s");
        ("alloc_bytes_per_tx", med (fun r -> per_tx r r.W.span.Meter.alloc_b) rs, "B");
        ("peak_heap_mb", top_heap_mb, "MB");
        ("latency_norm_p50_us", med (lat ~norm:true 0.5) rs, "us");
        ("latency_norm_p90_us", med (lat ~norm:true 0.9) rs, "us") ]
  in
  (* Recorded and printed, not gated: raw wall-clock figures carry the
     host's speed drift, and the tail beyond p90 its scheduling stalls.
     A figure the workload does not produce is nan. *)
  let recorded =
    if rs = [] then []
    else
      [ ("tx_per_s", med tps rs, "1/s");
        ("host_factor", med (fun r -> Meter.host_factor r.W.span) rs, "1");
        ("setup_wall_s", med (fun r -> r.W.setup_wall_s) rs, "s");
        ("latency_p50_us", med (lat 0.5) rs, "us");
        ("latency_p90_us", med (lat 0.9) rs, "us");
        ("latency_p99_us", med (lat 0.99) rs, "us");
        ("latency_norm_p99_us", med (lat ~norm:true 0.99) rs, "us");
        ("failover_s", med (fun r -> Meter.median_l r.W.failover_s) rs, "s");
        ("generator_late_p99_us", med (fun r -> Meter.quantile r.W.late_us 0.99) rs, "us");
        ("generator_late_max_us", med (fun r -> Meter.quantile r.W.late_us 1.0) rs, "us");
        ("cpu_per_wall", med (fun r -> r.W.span.Meter.cpu_s /. wall_s r) rs, "1") ]
  in
  let detail =
    List.map (fun (name, v, _) -> (name, json_num v)) recorded
    @ [ ("rounds", string_of_int (List.length rs));
        ("tx_per_round", json_num (med (fun r -> float_of_int r.W.tx) rs));
        ("latency_samples", json_num (med (fun r -> float_of_int (Array.length r.W.latency_us)) rs));
        ("tx_per_s_rounds", json_list (List.map tps rs));
        ("host_factor_rounds", json_list (List.map (fun r -> Meter.host_factor r.W.span) rs)) ]
  in
  (metrics, recorded, detail)

(* ------------------------------------------------------------------ *)
(* Per-layer                                                           *)
(* ------------------------------------------------------------------ *)

let per_layer cfg =
  let untraced = rounds cfg ~budget:(!seconds /. 2.0) ~min:1 in
  let log = World.new_log () in
  let t0 = Meter.now_ns () in
  let captured = attempt cfg (Some log) in
  let capture_s = Meter.secs_since t0 in
  match captured, untraced with
  | None, _ | _, [] -> ([], [], [ ("capture_s", json_num capture_s) ])
  | Some c, _ -> (
    match Replay.run (World.take log) with
    | exception World.Check_failed msg -> fail msg; ([], [], [])
    | rp ->
      if rp.Replay.fingerprint <> c.W.fingerprint then
        fail "replayed Loc-RIB fingerprint differs from the end-to-end run";
      if rp.Replay.fib_size <> c.W.fib_end then fail "replayed FIB size differs from the end-to-end run";
      let at_n, growth = Replay.peer_down_growth ~seed:cfg.W.seed (W.growth_n cfg) in
      let down = if rp.Replay.peer_down.Replay.units > 0 then rp.Replay.peer_down else at_n in
      let wall_ns = med (fun r -> float_of_int r.W.span.Meter.wall_ns) untraced in
      let tx = float_of_int c.W.tx in
      let live = cfg.W.workload = "live-tcp" in
      let replayed =
        float_of_int
          (List.fold_left
             (fun a (l : Replay.layer) -> a + l.Replay.ns)
             0
             ([ rp.Replay.framer; rp.Replay.encode; rp.Replay.rib_update;
                rp.Replay.peer_down; rp.Replay.fib ]
             @ if live then [ rp.Replay.tcp ] else []))
      in
      let k = c.W.counts in
      let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      let metrics =
        [ ("router.msgs_per_tx", float_of_int k.W.msgs /. tx, "msg/tx");
          ("sim.events_per_tx", float_of_int k.W.events /. tx, "event/tx");
          ("rib.fastpath_ratio", ratio k.W.fastpath k.W.decisions, "1");
          ("arena.hit_ratio", ratio k.W.hits k.W.interns, "1");
          ("fib.deltas_per_tx", float_of_int k.W.fib_deltas /. tx, "delta/tx");
          ( "gc.minor_per_ktx",
            med (fun r -> float_of_int r.W.span.Meter.minor_gcs *. 1000.0 /. float_of_int r.W.tx) untraced,
            "gc/ktx" );
          ("gc.major_collections", med (fun r -> float_of_int r.W.span.Meter.major_gcs) untraced, "count");
          ("framer.ns_per_msg", Replay.ns_per rp.Replay.framer, "ns");
          ("codec.decode_ns_per_msg", Replay.ns_per rp.Replay.decode, "ns");
          ("codec.decode_b_per_msg", Replay.b_per rp.Replay.decode, "B");
          ("codec.encode_ns_per_msg", Replay.ns_per rp.Replay.encode, "ns");
          ("rib.update_ns_per_prefix", Replay.ns_per rp.Replay.rib_update, "ns");
          ("rib.update_b_per_prefix", Replay.b_per rp.Replay.rib_update, "B");
          ("rib.peer_down_ns_per_prefix", Replay.ns_per down, "ns");
          ("rib.peer_down_b_per_prefix", Replay.b_per down, "B");
          ("rib.peer_down_growth_4x", growth, "1");
          ("fib.ns_per_delta", Replay.ns_per rp.Replay.fib, "ns");
          ("fib.b_per_delta", Replay.b_per rp.Replay.fib, "B");
          ("tcp.ns_per_msg", Replay.ns_per rp.Replay.tcp, "ns");
          ("other.ns_per_tx", (wall_ns -. replayed) /. tx, "ns");
          ("trace.coverage", replayed /. wall_ns, "1");
          ("trace.overhead", float_of_int c.W.span.Meter.wall_ns /. wall_ns, "1") ]
      in
      let detail =
        [ ("untraced_rounds", string_of_int (List.length untraced));
          ("capture_s", json_num capture_s);
          ("replay_fingerprint", json_string rp.Replay.fingerprint);
          ("peer_down_source", json_string (if down == at_n then "growth probe" else "replay")) ]
      in
      (metrics, [], detail))

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  if not (List.mem !workload W.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " W.names);
    exit 2
  end;
  let cfg =
    { W.workload = !workload; seed = !seed; n = (if !tiny then 600 else !n);
      probe = (if !tiny then 300 else !probe); tiny = !tiny; corrupt = !corrupt }
  in
  let metrics, recorded, detail = if !trace = 1 then per_layer cfg else end_to_end cfg in
  let fail_ratio = float_of_int tally.failed /. float_of_int (max 1 tally.attempted) in
  List.iter
    (fun (name, v, unit) ->
      if Float.is_finite v then Printf.printf "%-28s %14.6g %s\n" name v unit)
    (metrics @ recorded @ [ ("fail_ratio", fail_ratio, "1") ]);
  let anchor =
    match tally.anchor with
    | Some (fp, modeled) ->
      [ ("fingerprint", json_string fp);
        ("modeled_tps", "[" ^ String.concat ", " (List.map json_string modeled) ^ "]") ]
    | None -> []
  in
  print_endline
    (json_obj
       [ ( "detail",
           json_obj
             ([ ("workload", json_string !workload); ("seed", string_of_int !seed);
                ("fail_ratio", json_num fail_ratio);
                ("errors", "[" ^ String.concat ", " (List.map json_string tally.errors) ^ "]") ]
             @ anchor @ detail) ) ]);
  let correct = tally.failed = 0 && metrics <> [] in
  print_endline
    (json_obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int tally.attempted);
         ("failed", string_of_int tally.failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (name, v, unit) ->
                  (name, json_obj [ ("value", json_num v); ("unit", json_string unit) ]))
                metrics) ) ])
