(* Timing, allocation and host-speed measurement shared by the
   workloads and the traced replay.  Everything here is benchmark code:
   it calls nothing from the libraries under test. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Every byte allocated so far, on the minor and the major heap: blocks
   too large for the minor heap (a hashtable's bucket array, a long
   [Array.make]) go straight to the major heap and count here too.
   This is [Gc.allocated_bytes] with the minor words read from
   [Gc.minor_words]: OCaml 5.1's [Gc.counters] counts the words
   allocated since the last minor collection an eighth too low. *)
let alloc_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* What an [alloc_bytes] bracket allocates by itself, to take away from
   a bracketed call's bytes. *)
let alloc_bracket_bytes =
  let a = alloc_bytes () in
  alloc_bytes () -. a

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Linear-interpolated quantile, q in [0, 1]; nan for no samples. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = truncate x in
    let frac = x -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5
let median_l l = median (Array.of_list l)

(* ------------------------------------------------------------------ *)
(* Calibration kernel                                                  *)
(* ------------------------------------------------------------------ *)

(* A fixed job of sorting, hashing and short-lived allocation, a few
   microseconds long, calling no repository code.  A shared 2-vCPU VM
   was measured switching between speed modes about 1.5x apart within
   seconds, so the kernel runs many times inside every measured
   stretch: between the clock windows of a throughput phase and once
   per block of latency samples.
   Its time over [kernel_reference_ns] (its median on a 2-vCPU x86-64
   VM, OCaml 5.1) is the host factor; wall time divided by the host
   factor is wall time on the reference host.  Its inputs are
   allocated once and what it allocates dies young, so its cost does
   not depend on the heap a workload leaves behind. *)
let kernel_reference_ns = 5000.0

let kernel_src = Array.init 48 (fun i -> Hashtbl.hash (i * 40503))
let kernel_buf = Array.make 48 0
let kernel_keys = Array.init 16 (fun i -> string_of_int (i * 7919))

let kernel_ns () =
  let t0 = now_ns () in
  Array.blit kernel_src 0 kernel_buf 0 48;
  Array.sort Int.compare kernel_buf;
  let h = ref 0 in
  Array.iter (fun k -> h := !h lxor Hashtbl.hash k) kernel_keys;
  ignore (Sys.opaque_identity (List.init 8 (fun i -> i + !h)));
  float_of_int (now_ns () - t0)

(* The host's speed now: median of a short burst of kernel runs. *)
let kernel_sample () = median (Array.init 15 (fun _ -> kernel_ns ()))

(* Latency samples are rescaled in blocks: one [kernel_sample] is taken
   per block, outside every timed window, and the samples of block b
   are divided by the host factor of [kernel.(b)]. *)
let latency_block = 250

let normalize lat kernel =
  Array.mapi
    (fun i l -> l /. (kernel.(i / latency_block) /. kernel_reference_ns))
    lat

(* ------------------------------------------------------------------ *)
(* Measured spans                                                      *)
(* ------------------------------------------------------------------ *)

(* What the measured stretches of a round cost, outside-in.  [ref_ns]
   is the same wall time rescaled to the reference host. *)
type span = {
  mutable wall_ns : int;
  mutable ref_ns : float;
  mutable cpu_s : float;
  mutable alloc_b : float;  (* every word allocated, minor and major *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let span () =
  { wall_ns = 0; ref_ns = 0.0; cpu_s = 0.0; alloc_b = 0.0; minor_gcs = 0;
    major_gcs = 0 }

(* Kernel samples taken inside the stretch being measured, newest
   first: (time, kernel ns). *)
let ticks = ref []
let sampling = ref false

(* Called between the clock windows of a measured phase. *)
let tick () = if !sampling then ticks := (now_ns (), kernel_sample ()) :: !ticks

(* Wall ns from [t0] to [t1] on the reference host: each stretch
   between consecutive kernel samples is rescaled by the mean of the
   samples at its two ends. *)
let reference_ns (t0, k0) samples (t1, k1) =
  let rec go acc (ta, ka) = function
    | [] -> acc
    | (tb, kb) :: rest ->
      let stretch = float_of_int (tb - ta) in
      go (acc +. (stretch *. kernel_reference_ns /. ((ka +. kb) /. 2.0))) (tb, kb) rest
  in
  go 0.0 (t0, k0) (samples @ [ (t1, k1) ])

let measure sp f =
  let k0 = kernel_sample () in
  let g0 = Gc.quick_stat () in
  let a0 = alloc_bytes () in
  let c0 = Sys.time () in
  ticks := [];
  sampling := true;
  let t0 = now_ns () in
  let r = Fun.protect ~finally:(fun () -> sampling := false) f in
  let t1 = now_ns () in
  let c1 = Sys.time () in
  let a1 = alloc_bytes () in
  let g1 = Gc.quick_stat () in
  let k1 = kernel_sample () in
  sp.wall_ns <- sp.wall_ns + (t1 - t0);
  sp.ref_ns <- sp.ref_ns +. reference_ns (t0, k0) (List.rev !ticks) (t1, k1);
  sp.cpu_s <- sp.cpu_s +. (c1 -. c0);
  sp.alloc_b <- sp.alloc_b +. (a1 -. a0);
  sp.minor_gcs <- sp.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  sp.major_gcs <- sp.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
  r

(* Set-up timing: the returned function gives wall and reference-host
   seconds since [stopwatch] was called. *)
let stopwatch () =
  let k0 = kernel_sample () in
  let t0 = now_ns () in
  fun () ->
    let t1 = now_ns () in
    let k1 = kernel_sample () in
    (float_of_int (t1 - t0) *. 1e-9, reference_ns (t0, k0) [] (t1, k1) *. 1e-9)

(* Wall time over reference-host time: above 1 on a slow host. *)
let host_factor sp = float_of_int sp.wall_ns /. sp.ref_ns
