(** Crash-safe file writes: write to [<path>.tmp], flush, then rename.

    A reader (or a post-crash restart) observing [path] sees either the
    old content or the complete new content, never a torn prefix —
    [Sys.rename] is atomic on POSIX filesystems.  If the writer dies
    mid-write, the half-written [.tmp] file is left behind (and
    overwritten by the next attempt); the destination is untouched. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] against a channel on [path ^ ".tmp"],
    flushes and closes it, then renames over [path].  If [f] raises,
    the temp file is removed and the exception re-raised; [path] is
    never touched.  Raises [Sys_error] on filesystem failure. *)

val write_string : string -> string -> unit
(** [write_string path s] — {!write} of one [output_string]. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and any missing parents ([mkdir -p]).  A
    directory created concurrently by another writer is not an error.
    Raises [Sys_error] on any other filesystem failure. *)
