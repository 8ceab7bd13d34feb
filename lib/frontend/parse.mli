(** Parser for the surface language: a Fortran-flavoured mini dialect
    for writing analyzable programs in text form.

    {v
    program tfft2_f3
    param p = 2..6
    param q = 1..5
    pow2 P = p
    pow2 Q = q
    real X(2*P*Q)

    phase F3:
      doall I = 0, Q-1
        do L = 1, p
          do J = 0, P * 2^(0-L) - 1
            do K = 0, 2^(L-1) - 1
              X(2*P*I + 2^(L-1)*J + K) =
                X(2*P*I + 2^(L-1)*J + K) + X(2*P*I + 2^(L-1)*J + K + P/2) work 8
            end
          end
        end
      end
    v}

    - [param x = lo..hi] declares a free integer parameter;
      [pow2 X = x] declares X = 2^x (the paper's input constraints).
    - [real A(e1, e2, ...)] declares an array with symbolic extents.
    - [phase NAME:] introduces one loop nest; [doall] marks the (single)
      parallel loop.  Loop syntax: [do I = lo, hi [step s]] ... [end].
    - A statement [A(e1), B(e2) = rhs [work N]] writes every
      reference listed before [=] and reads every array reference in
      [rhs]; its references are the reads, in order, then the writes.
      [work] sets the abstract per-execution cost (default 1).  A bare
      list [A(e1), B(e2) [work N]] is one read-only statement.
    - [sub NAME(A(dims), ...)] ... [endsub] declares a subroutine over
      dummy arrays; [call NAME(G, G2(offset))] splices its phases with
      each formal rebound to the actual array section (Fortran
      storage-sequence association, flat 0-based offsets) - the
      inter-procedural reshaping path of {!Ir.Inline}.
    - [repeat] (after the phases) marks the program as enclosed in a
      timestep loop.
    - [!] and [#] start comments; [**] and [^] both mean power (base 2
      or constant exponents only). *)

exception Error of { line : int; message : string }

val program : string -> Ir.Types.program
(** Parse a full program from source text.  Total over hostile input:
    {e every} failure - lexer errors, oversized integer literals,
    pathological nesting (bounded expression depth plus a
    [Stack_overflow] net) - surfaces as a positioned {!Error}; no
    other exception escapes.  @raise Error *)

val program_file : string -> Ir.Types.program
(** Parse from a file path. @raise Error and [Sys_error]. *)
