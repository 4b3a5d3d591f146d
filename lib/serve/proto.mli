(** Wire protocol of [hlsc serve]: length-prefixed JSON frames plus the
    request/response codecs.

    A frame is a decimal byte count, one ['\n'], then exactly that many
    payload bytes. Requests are objects with a ["cmd"] of [synth], [dse],
    [lint], [ping], [stats] or [shutdown]; a source as inline ["source"]
    text or a built-in ["workload"] name; and an ["options"] object
    with one field per exposed {!Hls_core.Flow.Knob}, spelled in the CLI
    flag vocabulary ([passes], [if_convert], [scheduler], [fus],
    [allocator], [encoding], [narrow], [iterate]). Responses carry a
    ["status"] of [ok], [busy] or [error], the protocol [version] under
    ["proto"], and the request's trace span id. *)

module J = Hls_util.Json
module Flow = Hls_core.Flow

val version : int
(** Protocol version (2: the pipeline is the ["passes"] spec string;
    responses advertise the version, and requests asserting a {e newer}
    ["proto"] are rejected). *)

(** {2 Framing} *)

exception Closed
(** Raised by {!write_frame} when the peer has gone away (EPIPE). *)

val max_frame : int
(** Upper bound on a frame payload (16 MiB); larger headers are
    rejected before any allocation. *)

val write_frame : Unix.file_descr -> string -> unit

val read_frame : Unix.file_descr -> (string, string) result option
(** [None] on a clean end-of-stream at a frame boundary;
    [Some (Error _)] on a torn, oversized or malformed frame;
    [Some (Ok payload)] otherwise. *)

(** {2 Requests} *)

type request =
  | Synth of { name : string; source : string; options : Flow.options }
  | Dse of { name : string; source : string; points : Flow.options list }
  | Lint of {
      name : string;
      source : string;
      options : Flow.options;
      floor : Hls_analysis.Diagnostic.severity;
    }
  | Ping of { delay_ms : int }  (** testing aid: reply after a delay *)
  | Stats
  | Shutdown

val request_of_json : J.t -> (request, string) result

val options_of_json : J.t -> (Flow.options, string) result
(** Missing fields take {!Hls_core.Flow.default_options} (standard
    pipeline, list scheduler, 2 FUs, min-mux, binary). Each field
    decodes through its knob's vocabulary: [scheduler] accepts
    [fds+K]; [fus] an integer (0 serial, -1 unlimited, N units) or a
    class spec string such as ["alu:1,mul:1,div:1"]. An unknown key
    is an error naming it and listing the known keys. *)

val options_to_json : Flow.options -> J.t
(** Every exposed option, in table order; [options_of_json] inverts it
    exactly. *)

(** {2 Responses} *)

val response : status:string -> span:int -> (string * J.t) list -> J.t
val ok : span:int -> (string * J.t) list -> J.t
val error : span:int -> string -> J.t
val busy : span:int -> queue:int -> depth:int -> J.t

val design_summary : Flow.design -> J.t
(** [design_hash] (via {!Hls_core.Dse.design_digest}), area/timing
    estimate fields, bound FU count, and the echoed option point. *)

val diagnostics_json : Hls_analysis.Diagnostic.t list -> J.t
