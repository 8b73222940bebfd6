(** A real TCP connection as a pair of {!Bgp_engine.Link.t} endpoints.

    The live counterpart of {!Bgp_netsim.Channel}, and the only socket
    transport: {!listen} binds a loopback listener (the passive side —
    the router under test in the paper's setup), {!connect} makes an
    active opener whose [start_connect] dials it, and {!pair} is the
    two joined.  Every endpoint lives on one {!Event_loop}; reads,
    connection events, and tap-delayed deliveries all flow through the
    loop, so callback context matches the simulated channel
    (everything fires from the pump, never from inside [send]).

    Semantics mirrored from the simulated channel:
    - outbound taps see whole messages (one [send] = one tap consult)
      and may pass, drop, tamper, or delay them;
    - closing either endpoint tears the connection down on both sides
      (close/EOF), after which the connector may [start_connect] again
      — a new connection generation; tap-delayed bytes from the old
      connection are discarded, never delivered into the new stream;
    - output is queued and flushed as the peer drains it (write
      readiness), so a burst larger than the socket buffers cannot
      deadlock the single-threaded loop. *)

type endpoint = {
  link : Bgp_engine.Link.t;
  port : int;
      (** the bound port of a listener (the ephemeral one when asked
          for port 0); the dialled port of a connector *)
  dispose : unit -> unit;
      (** close the endpoint's sockets, the listening one included,
          without notifying the session; the endpoint is dead
          afterwards *)
}

val listen : Event_loop.t -> port:int -> endpoint
(** Bind a listener on 127.0.0.1:[port] ([0] picks an ephemeral port).
    It accepts, and re-accepts after a teardown, one connection at a
    time; a new connection replaces the current one.  Its
    [start_connect] is a no-op.
    @raise Unix.Unix_error if the port cannot be bound. *)

val connect : Event_loop.t -> port:int -> endpoint
(** An active opener toward 127.0.0.1:[port].  Nothing connects until
    [link.start_connect]; a refused dial reports [closed]. *)

type t = {
  connector : Bgp_engine.Link.t;
      (** active opener — [start_connect] dials the listener *)
  listener : Bgp_engine.Link.t;
      (** passive side — accepts (and re-accepts) connections *)
  dispose : unit -> unit;
      (** close every socket including the listening one; endpoints are
          dead afterwards *)
}

val pair : Event_loop.t -> t
(** [listen ~port:0] plus a [connect] to it: the endpoint pair of one
    loopback connection.  Nothing connects until
    [connector.start_connect]. *)
