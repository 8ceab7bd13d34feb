val clear_all : unit -> unit
(** {!Probe.clear}: drop the calling domain's sample banks.  Kept under
    this name for the benchmark harness; the libraries and tests call
    [Probe.clear]. *)
