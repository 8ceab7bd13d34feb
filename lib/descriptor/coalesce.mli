(** Stride coalescing (paper, Sec. 2.1; originally Paek et al. [9]).

    Removes redundant stride entries from a PD group without changing
    the described address set.  Three sound rules, each checked for
    {e every} row of the group (rows share the stride vector):

    - {b contiguous merge}: dim [i] steps exactly where dim [j]'s span
      ends ([delta_i = alpha_j * delta_j]); dims fuse with
      [alpha' = alpha_i * alpha_j].  This is the classic LMAD rule and
      performs Fig. 3 (a)->(b) on TFFT2.
    - {b overlap merge}: [delta_i = c * delta_j] for a constant integer
      [1 <= c <= alpha_j]; the shifted copies interleave into one dim
      with [alpha' = (alpha_i - 1)*c + alpha_j].
    - {b subsumption deletion}: the remaining sequential dims form a
      dense contiguous region, dim [i]'s stride lands on its grid, and
      pinning dim [i]'s loop indices at their lower bounds provably
      leaves the nest's reach unchanged (checked with {!Symbolic.Range}
      on the source subscripts).  This removes the non-uniform
      [J*2^(L-1)] dim of TFFT2, Fig. 3 (b)->(c).

    The parallel dim is never touched: it is the distribution handle. *)

val pd : Pd.t -> Pd.t
