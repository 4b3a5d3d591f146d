(** Value-change-dump (IEEE 1364 VCD) waveform emission for RTL
    simulation runs — open the result in GTKWave or any VCD viewer to
    watch the synthesized design's registers and FSM state cycle by
    cycle. *)

val dump :
  ?module_name:string ->
  Hls_rtl.Datapath.t ->
  inputs:(string * int) list ->
  string
(** Simulate the datapath on the inputs (abstract controller) and render
    the complete run as VCD text: one signal per register plus the state
    register, one timestep per clock cycle, only changed values dumped
    per step. *)

val dump_to_file :
  ?module_name:string ->
  Hls_rtl.Datapath.t ->
  inputs:(string * int) list ->
  path:string ->
  Rtl_sim.result
(** Like {!dump}, writing the text to [path] and returning the
    simulation result. *)
