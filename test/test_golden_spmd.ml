(* Golden snapshots of the SPMD prose emitter and the DSM simulator for
   every registry kernel under the default size knob on 4 processors.

   [golden] pins the exact text of `Codegen.Spmd.generate`, so a change
   to the plan or schedule machinery cannot silently change emitted
   code.  [sim_golden] pins two simulator runs per kernel (the LCG
   plan and the BLOCK baseline), each as `Dsmsim.Exec.pp` text plus
   every time it reports printed with %h - `pp`'s %.0f cannot see a
   change in float-summation order - followed by the validator's
   verdict on the generated schedule.

   Regenerate after an intentional change with

     GOLDEN_UPDATE=1 dune exec test/test_golden_spmd.exe

   and paste the emitted bindings over the two tables below. *)

open Symbolic

let snapshot name =
  let e = Codes.Registry.find name in
  Probe.with_seed 701 (fun () ->
      Symbolic.Artifact.clear_all ();
      let t =
        Core.Pipeline.run e.program ~env:(e.env_of_size e.default_size) ~h:4
      in
      Codegen.Spmd.generate t.Core.Pipeline.lcg t.Core.Pipeline.plan
        t.Core.Pipeline.machine)

let pp_exact ppf (r : Dsmsim.Exec.run) =
  Format.fprintf ppf "@[<v>par=%h seq=%h eff=%h@," r.par_time r.seq_time
    r.efficiency;
  List.iter
    (fun (p : Dsmsim.Exec.phase_stats) ->
      Format.fprintf ppf "  phase %s t=%h@," p.name p.time)
    r.phases;
  List.iter
    (fun (c : Dsmsim.Exec.comm_stats) ->
      Format.fprintf ppf "  comm %s %d t=%h@," c.array c.before_phase c.time)
    r.comms;
  Array.iteri
    (fun p (s : Dsmsim.Exec.proc_stats) ->
      Format.fprintf ppf "  proc %d compute=%h access=%h@," p s.compute_time
        s.access_time)
    r.per_proc;
  Format.fprintf ppf "@]"

let sim_snapshot name =
  let e = Codes.Registry.find name in
  Probe.with_seed 701 (fun () ->
      Symbolic.Artifact.clear_all ();
      let t =
        Core.Pipeline.run e.program ~env:(e.env_of_size e.default_size) ~h:4
      in
      let rounds = if e.program.repeats then 2 else 1 in
      let runs =
        [
          ("lcg", Core.Pipeline.simulate ~rounds t);
          ("block", Core.Pipeline.simulate_baseline ~rounds t);
        ]
      in
      let validations = [ ("validate", Exec.Validate.run ~rounds t.lcg t.plan) ] in
      Format.asprintf "@[<v>rounds %d@,%a@,%a@]@." rounds
        (Format.pp_print_list (fun ppf (label, r) ->
             Format.fprintf ppf "== %s@,%a@,%a" label Dsmsim.Exec.pp r
               pp_exact r))
        runs
        (Format.pp_print_list (fun ppf (label, v) ->
             Format.fprintf ppf "== %s@,@[<v>%a@]" label Exec.Validate.pp v))
        validations)

let golden : (string * string) list =
  [
    ("tfft2", {golden|! SPMD code generated from the LCG-derived distribution
! program tfft2 on 4 processors (me = 0..3)

! layout X: CYCLIC(64) anchored at 0
! layout Y: CYCLIC(32) anchored at 0
subroutine phase_F1(me)
  do M_blk = 0 + me*32, -1 + P*Q, NPROC*32   ! CYCLIC(32) chunks of mine
  do M = M_blk, min(M_blk + 31, -1 + P*Q)
    Y(M) = X(2*M) + X(1 + 2*M)
    Y(M + P*Q) = X(2*M) + X(1 + 2*M)
    
  end do
  end do
  
end subroutine

! layout X: CYCLIC(1) anchored at 0
subroutine phase_F2(me)
  do J_blk = 0 + me*1, -1 + P, NPROC*1   ! CYCLIC(1) chunks of mine
  do J = J_blk, min(J_blk + 0, -1 + P)
    do I = 0, -1 + Q
      X(2*I*P + J) = Y(I + J*Q) + Y(I + J*Q + P*Q)
      X(2*I*P + J + P) = Y(I + J*Q) + Y(I + J*Q + P*Q)
      
    end do
    
  end do
  end do
  
end subroutine

call redistribute_X()   ! 12 aggregated puts, 1536 words

! layout X: CYCLIC(64) anchored at 0
! Y privatized: each processor uses a local copy
subroutine phase_F3(me)
  do I_blk = 0 + me*1, -1 + Q, NPROC*1   ! CYCLIC(1) chunks of mine
  do I = I_blk, min(I_blk + 0, -1 + Q)
    do S = 0, -1 + 2*P
      Y(2*I*P + S) = ...
      
    end do
    do L = 1, p
      do J = 0, -1 + P*2^(-L)
        do K = 0, -1 + 1/2*2^(L)
          X(2*I*P + 1/2*J*2^(L) + K) = Y(2*I*P + K) + X(2*I*P + 1/2*J*2^(L) + K) + X(2*I*P + 1/2*J*2^(L) + K + 1/2*P)
          
        end do
        
      end do
      
    end do
    
  end do
  end do
  
end subroutine

! layout Y: CYCLIC(1) anchored at 0
subroutine phase_F4(me)
  do I_blk = 0 + me*1, -1 + Q, NPROC*1   ! CYCLIC(1) chunks of mine
  do I = I_blk, min(I_blk + 0, -1 + Q)
    do J = 0, -1 + P
      ... = X(2*I*P + J)
      
    end do
    do J2 = 0, -1 + 2*P
      Y(I + J2*Q) = ...
      
    end do
    
  end do
  end do
  
end subroutine

call redistribute_Y()   ! 12 aggregated puts, 1536 words

! layout Y: CYCLIC(64) anchored at 0
subroutine phase_F5(me)
  do J_blk = 0 + me*1, -1 + P, NPROC*1   ! CYCLIC(1) chunks of mine
  do J = J_blk, min(J_blk + 0, -1 + P)
    do I = 0, -1 + 2*Q
      X(I + 2*J*Q) = Y(I + 2*J*Q)
      
    end do
    
  end do
  end do
  
end subroutine

subroutine phase_F6(me)
  do J_blk = 0 + me*1, -1 + P, NPROC*1   ! CYCLIC(1) chunks of mine
  do J = J_blk, min(J_blk + 0, -1 + P)
    do I = 0, -1 + 2*Q
      Y(I + 2*J*Q) = X(I + 2*J*Q)
      
    end do
    do I2 = 0, -1 + 2*Q
      X(I2 + 2*J*Q) = Y(I2 + 2*J*Q)
      
    end do
    
  end do
  end do
  
end subroutine

subroutine phase_F7(me)
  do J_blk = 0 + me*1, -1 + P, NPROC*1   ! CYCLIC(1) chunks of mine
  do J = J_blk, min(J_blk + 0, -1 + P)
    do I = 0, -1 + 2*Q
      ... = X(I + 2*J*Q)
      
    end do
    
  end do
  end do
  
end subroutine

subroutine phase_F8(me)
  do M_blk = 0 + me*64, -1 + 1/2*P*Q, NPROC*64   ! CYCLIC(64) chunks of mine
  do M = M_blk, min(M_blk + 63, -1 + 1/2*P*Q)
    X(M) = Y(M) + Y(M + P*Q) + Y(-1 - M + P*Q) + Y(-1 - M + 2*P*Q)
    X(M + P*Q) = Y(M) + Y(M + P*Q) + Y(-1 - M + P*Q) + Y(-1 - M + 2*P*Q)
    X(-1 - M + P*Q) = Y(M) + Y(M + P*Q) + Y(-1 - M + P*Q) + Y(-1 - M + 2*P*Q)
    X(-1 - M + 2*P*Q) = Y(M) + Y(M + P*Q) + Y(-1 - M + P*Q) + Y(-1 - M + 2*P*Q)
    
  end do
  end do
  
end subroutine

|golden});
    ("jacobi2d", {golden|! SPMD code generated from the LCG-derived distribution
! program jacobi2d on 4 processors (me = 0..3)

! layout U: CYCLIC(256) anchored at 33, ghost zone 32
! layout V: CYCLIC(256) anchored at 33
subroutine phase_SWEEP(me)
  do c_blk = 1 + me*8, -2 + N, NPROC*8   ! CYCLIC(8) chunks of mine
  do c = c_blk, min(c_blk + 7, -2 + N)
    do r = 1, -2 + N
      V(N*c + r) = U(-N + N*c + r) + U(N + N*c + r) + U(-1 + N*c + r) + U(1 + N*c + r) + U(N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine

subroutine phase_COPY(me)
  do c_blk = 1 + me*8, -2 + N, NPROC*8   ! CYCLIC(8) chunks of mine
  do c = c_blk, min(c_blk + 7, -2 + N)
    do r = 1, -2 + N
      U(N*c + r) = V(N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine
call frontier_update_U()   ! 6 boundary puts, 192 words

|golden});
    ("swim", {golden|! SPMD code generated from the LCG-derived distribution
! program swim on 4 processors (me = 0..3)

! layout U: CYCLIC(256) anchored at 32
! layout V: CYCLIC(256) anchored at 33, ghost zone 30
! layout P: CYCLIC(256) anchored at 33, ghost zone 30
! layout CU: CYCLIC(256) anchored at 33, ghost zone 30
! layout CV: CYCLIC(256) anchored at 33
! layout PNEW: CYCLIC(256) anchored at 33
subroutine phase_CALC1(me)
  do c_blk = 1 + me*8, -2 + N, NPROC*8   ! CYCLIC(8) chunks of mine
  do c = c_blk, min(c_blk + 7, -2 + N)
    do r = 1, -2 + N
      CU(N*c + r) = P(N*c + r) + P(-N + N*c + r) + U(N*c + r) + U(-1 + N*c + r)
      CV(N*c + r) = P(N*c + r) + V(N*c + r) + V(-N + N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine
call frontier_update_CU()   ! 6 boundary puts, 180 words

subroutine phase_CALC2(me)
  do c_blk = 1 + me*8, -2 + N, NPROC*8   ! CYCLIC(8) chunks of mine
  do c = c_blk, min(c_blk + 7, -2 + N)
    do r = 1, -2 + N
      PNEW(N*c + r) = CU(N*c + r) + CU(N + N*c + r) + CV(N*c + r) + CV(1 + N*c + r) + P(N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine

subroutine phase_CALC3(me)
  do c_blk = 1 + me*8, -2 + N, NPROC*8   ! CYCLIC(8) chunks of mine
  do c = c_blk, min(c_blk + 7, -2 + N)
    do r = 1, -2 + N
      P(N*c + r) = PNEW(N*c + r)
      U(N*c + r) = PNEW(N*c + r)
      V(N*c + r) = PNEW(N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine
call frontier_update_P()   ! 6 boundary puts, 180 words
call frontier_update_V()   ! 6 boundary puts, 180 words

|golden});
    ("tomcatv", {golden|! SPMD code generated from the LCG-derived distribution
! program tomcatv on 4 processors (me = 0..3)

call redistribute_PARTIAL()   ! 3 aggregated puts, 3 words

! layout X: CYCLIC(256) anchored at 33, ghost zone 32
! layout Y: CYCLIC(256) anchored at 33, ghost zone 32
! layout RX: CYCLIC(256) anchored at 33
! layout RY: CYCLIC(256) anchored at 33
! layout PARTIAL: CYCLIC(8) anchored at 1
subroutine phase_RESID(me)
  do c_blk = 1 + me*8, -2 + N, NPROC*8   ! CYCLIC(8) chunks of mine
  do c = c_blk, min(c_blk + 7, -2 + N)
    do r = 1, -2 + N
      RX(N*c + r) = X(N*c + r) + X(-N + N*c + r) + X(N + N*c + r) + X(-1 + N*c + r) + X(1 + N*c + r)
      RY(N*c + r) = Y(N*c + r) + Y(-N + N*c + r) + Y(N + N*c + r) + Y(-1 + N*c + r) + Y(1 + N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine

subroutine phase_NORM(me)
  do c_blk = 1 + me*8, -2 + N, NPROC*8   ! CYCLIC(8) chunks of mine
  do c = c_blk, min(c_blk + 7, -2 + N)
    do r = 1, -2 + N
      PARTIAL(c) = RX(N*c + r) + RY(N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine

call redistribute_PARTIAL()   ! 3 aggregated puts, 3 words

! layout PARTIAL: CYCLIC(8) anchored at 0
subroutine phase_COMBINE(me)
  do c = 1, -2 + N
    ... = PARTIAL(c)
    
  end do
  
end subroutine

subroutine phase_UPDATE(me)
  do c_blk = 1 + me*8, -2 + N, NPROC*8   ! CYCLIC(8) chunks of mine
  do c = c_blk, min(c_blk + 7, -2 + N)
    do r = 1, -2 + N
      X(N*c + r) = RX(N*c + r) + X(N*c + r)
      Y(N*c + r) = RY(N*c + r) + Y(N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine
call frontier_update_X()   ! 6 boundary puts, 192 words
call frontier_update_Y()   ! 6 boundary puts, 192 words

|golden});
    ("matmul", {golden|! SPMD code generated from the LCG-derived distribution
! program matmul on 4 processors (me = 0..3)

! layout A: CYCLIC(64) anchored at 0, ghost zone 256
! layout B: CYCLIC(16) anchored at 0
! layout C: CYCLIC(16) anchored at 0
subroutine phase_INIT(me)
  do j_blk = 0 + me*1, -1 + N, NPROC*1   ! CYCLIC(1) chunks of mine
  do j = j_blk, min(j_blk + 0, -1 + N)
    do i = 0, -1 + N
      C(N*j + i) = ...
      
    end do
    
  end do
  end do
  
end subroutine

subroutine phase_MULT(me)
  do j_blk = 0 + me*1, -1 + N, NPROC*1   ! CYCLIC(1) chunks of mine
  do j = j_blk, min(j_blk + 0, -1 + N)
    do k = 0, -1 + N
      do i = 0, -1 + N
        C(N*j + i) = A(N*k + i) + B(N*j + k) + C(N*j + i)
        
      end do
      
    end do
    
  end do
  end do
  
end subroutine

subroutine phase_SCALE(me)
  do j_blk = 0 + me*1, -1 + N, NPROC*1   ! CYCLIC(1) chunks of mine
  do j = j_blk, min(j_blk + 0, -1 + N)
    do i = 0, -1 + N
      C(N*j + i) = C(N*j + i)
      
    end do
    
  end do
  end do
  
end subroutine

|golden});
    ("adi", {golden|! SPMD code generated from the LCG-derived distribution
! program adi on 4 processors (me = 0..3)

call redistribute_U()   ! 12 aggregated puts, 768 words

! layout U: CYCLIC(32) anchored at 0
subroutine phase_COLSWEEP(me)
  do c_blk = 0 + me*1, -1 + N, NPROC*1   ! CYCLIC(1) chunks of mine
  do c = c_blk, min(c_blk + 0, -1 + N)
    do r = 1, -1 + N
      U(N*c + r) = U(-1 + N*c + r) + U(N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine

call redistribute_U()   ! 12 aggregated puts, 768 words

! layout U: CYCLIC(1) anchored at 0
subroutine phase_ROWSWEEP(me)
  do r_blk = 0 + me*1, -1 + N, NPROC*1   ! CYCLIC(1) chunks of mine
  do r = r_blk, min(r_blk + 0, -1 + N)
    do c = 1, -1 + N
      U(N*c + r) = U(-N + N*c + r) + U(N*c + r)
      
    end do
    
  end do
  end do
  
end subroutine

|golden});
    ("redblack", {golden|! SPMD code generated from the LCG-derived distribution
! program redblack on 4 processors (me = 0..3)

! layout G: CYCLIC(32) anchored at 1
subroutine phase_RED(me)
  do i_blk = 1 + me*16, -1 + N, NPROC*16   ! CYCLIC(16) chunks of mine
  do i = i_blk, min(i_blk + 15, -1 + N)
    G(2*i) = G(-1 + 2*i) + G(1 + 2*i)
    
  end do
  end do
  
end subroutine

subroutine phase_BLACK(me)
  do i_blk = 0 + me*16, -2 + N, NPROC*16   ! CYCLIC(16) chunks of mine
  do i = i_blk, min(i_blk + 15, -2 + N)
    G(1 + 2*i) = G(2*i) + G(2 + 2*i)
    
  end do
  end do
  
end subroutine

|golden});
    ("trisolve", {golden|! SPMD code generated from the LCG-derived distribution
! program trisolve on 4 processors (me = 0..3)

! layout L: CYCLIC(64) anchored at 0
! layout X: CYCLIC(4) anchored at 0
! layout Y: CYCLIC(64) anchored at 0
subroutine phase_SOLVE(me)
  do j_blk = 0 + me*1, -1 + N, NPROC*1   ! CYCLIC(1) chunks of mine
  do j = j_blk, min(j_blk + 0, -1 + N)
    do r = 0, j
      Y(N*j + r) = L(N*j + r) + X(r)
      
    end do
    
  end do
  end do
  
end subroutine

! layout Y: CYCLIC(64) anchored at 0
subroutine phase_REDUCE(me)
  do j_blk = 0 + me*1, -1 + N, NPROC*1   ! CYCLIC(1) chunks of mine
  do j = j_blk, min(j_blk + 0, -1 + N)
    do r = 0, j
      ... = Y(N*j + r)
      
    end do
    
  end do
  end do
  
end subroutine

|golden});
    ("mgrid", {golden|! SPMD code generated from the LCG-derived distribution
! program mgrid on 4 processors (me = 0..3)

! layout FINE: CYCLIC(64) anchored at 1
! layout FTMP: CYCLIC(64) anchored at 1
! layout COARSE: CYCLIC(32) anchored at 1
! layout CTMP: CYCLIC(32) anchored at 1
subroutine phase_SMOOTHF(me)
  do i_blk = 1 + me*64, -2 + 2*N, NPROC*64   ! CYCLIC(64) chunks of mine
  do i = i_blk, min(i_blk + 63, -2 + 2*N)
    FTMP(i) = FINE(-1 + i) + FINE(i) + FINE(1 + i)
    
  end do
  end do
  
end subroutine

subroutine phase_RESTRICT(me)
  do i_blk = 1 + me*32, -2 + N, NPROC*32   ! CYCLIC(32) chunks of mine
  do i = i_blk, min(i_blk + 31, -2 + N)
    COARSE(i) = FTMP(-1 + 2*i) + FTMP(2*i) + FTMP(1 + 2*i)
    
  end do
  end do
  
end subroutine

subroutine phase_SMOOTHC(me)
  do i_blk = 1 + me*32, -2 + N, NPROC*32   ! CYCLIC(32) chunks of mine
  do i = i_blk, min(i_blk + 31, -2 + N)
    CTMP(i) = COARSE(-1 + i) + COARSE(i) + COARSE(1 + i)
    
  end do
  end do
  
end subroutine

subroutine phase_PROLONG(me)
  do i_blk = 1 + me*32, -2 + N, NPROC*32   ! CYCLIC(32) chunks of mine
  do i = i_blk, min(i_blk + 31, -2 + N)
    FINE(2*i) = CTMP(i) + CTMP(1 + i) + FTMP(2*i) + FTMP(1 + 2*i)
    FINE(1 + 2*i) = CTMP(i) + CTMP(1 + i) + FTMP(2*i) + FTMP(1 + 2*i)
    
  end do
  end do
  
end subroutine

|golden});
  ]

let update_mode = Sys.getenv_opt "GOLDEN_UPDATE" = Some "1"

let sim_golden : (string * string) list =
  [
    ("tfft2", {golden|rounds 1
== lcg
H=4  T_par=44888  T_seq=125952  efficiency=70.1%  local=39936 remote=2048
  F1     local=4096     remote=0        t=2048
  F2     local=4096     remote=0        t=2048
  F3     local=12288    remote=0        t=9216
  F4     local=3072     remote=0        t=2304
  F5     local=4096     remote=0        t=4096
  F6     local=8192     remote=0        t=7168
  F7     local=2048     remote=0        t=1536
  F8     local=2048     remote=2048     t=11264
  redistribute X before phase 2: 1536 words (t=2604)
  redistribute Y before phase 4: 1536 words (t=2604)

par=0x1.5ebp+15 seq=0x1.ecp+16 eff=0x1.6728495d4d6cdp-1
  phase F1 t=0x1p+11
  phase F2 t=0x1p+11
  phase F3 t=0x1.2p+13
  phase F4 t=0x1.2p+11
  phase F5 t=0x1p+12
  phase F6 t=0x1.cp+12
  phase F7 t=0x1.8p+10
  phase F8 t=0x1.6p+13
  comm X 2 t=0x1.458p+11
  comm Y 4 t=0x1.458p+11
  proc 0 compute=0x1.48p+14 access=0x1.24p+14
  proc 1 compute=0x1.48p+14 access=0x1.24p+14
  proc 2 compute=0x1.48p+14 access=0x1.24p+14
  proc 3 compute=0x1.48p+14 access=0x1.24p+14

== block
H=4  T_par=62464  T_seq=125952  efficiency=50.4%  local=32768 remote=9216
  F1     local=2560     remote=1536     t=3584
  F2     local=1024     remote=3072     t=18048
  F3     local=12288    remote=0        t=9216
  F4     local=1536     remote=1536     t=3456
  F5     local=4096     remote=0        t=4096
  F6     local=8192     remote=0        t=7168
  F7     local=2048     remote=0        t=1536
  F8     local=1024     remote=3072     t=15360

par=0x1.e8p+15 seq=0x1.ecp+16 eff=0x1.02192e29f79b4p-1
  phase F1 t=0x1.cp+11
  phase F2 t=0x1.1ap+14
  phase F3 t=0x1.2p+13
  phase F4 t=0x1.bp+11
  phase F5 t=0x1p+12
  phase F6 t=0x1.cp+12
  phase F7 t=0x1.8p+10
  phase F8 t=0x1.ep+13
  proc 0 compute=0x1.48p+14 access=0x1.04p+15
  proc 1 compute=0x1.48p+14 access=0x1.44p+15
  proc 2 compute=0x1.48p+14 access=0x1.44p+15
  proc 3 compute=0x1.48p+14 access=0x1.04p+15

== validate
reads 20480, stale 0
|golden});
    ("jacobi2d", {golden|rounds 2
== lcg
H=4  T_par=7888  T_seq=25200  efficiency=79.9%  local=14400 remote=0
  SWEEP  local=5400     remote=0        t=2640
  COPY   local=1800     remote=0        t=720
  SWEEP  local=5400     remote=0        t=2640
  COPY   local=1800     remote=0        t=720
  frontier U after phase 2: 192 words (t=584)
  frontier U after phase 2: 192 words (t=584)

par=0x1.edp+12 seq=0x1.89cp+14 eff=0x1.98ecc97a07451p-1
  phase SWEEP t=0x1.4ap+11
  phase COPY t=0x1.68p+9
  phase SWEEP t=0x1.4ap+11
  phase COPY t=0x1.68p+9
  comm U 2 t=0x1.24p+9
  comm U 2 t=0x1.24p+9
  proc 0 compute=0x1.68p+11 access=0x1.ep+11
  proc 1 compute=0x1.68p+11 access=0x1.ep+11
  proc 2 compute=0x1.68p+11 access=0x1.ep+11
  proc 3 compute=0x1.0ep+11 access=0x1.68p+11

== block
H=4  T_par=17520  T_seq=25200  efficiency=36.0%  local=12960 remote=1440
  SWEEP  local=4860     remote=540      t=7080
  COPY   local=1620     remote=180      t=1680
  SWEEP  local=4860     remote=540      t=7080
  COPY   local=1620     remote=180      t=1680

par=0x1.11cp+14 seq=0x1.89cp+14 eff=0x1.70381c0e07038p-2
  phase SWEEP t=0x1.ba8p+12
  phase COPY t=0x1.a4p+10
  phase SWEEP t=0x1.ba8p+12
  phase COPY t=0x1.a4p+10
  proc 0 compute=0x1.68p+11 access=0x1.c98p+13
  proc 1 compute=0x1.68p+11 access=0x1.c98p+13
  proc 2 compute=0x1.68p+11 access=0x1.c98p+13
  proc 3 compute=0x1.0ep+11 access=0x1.68p+11

== validate
reads 10800, stale 0
|golden});
    ("swim", {golden|rounds 2
== lcg
H=4  T_par=26632  T_seq=86400  efficiency=81.1%  local=34176 remote=24
  CALC1  local=8088     remote=12       t=6116
  CALC2  local=5400     remote=0        t=3840
  CALC3  local=3600     remote=0        t=1680
  CALC1  local=8088     remote=12       t=6116
  CALC2  local=5400     remote=0        t=3840
  CALC3  local=3600     remote=0        t=1680
  frontier CU after phase 1: 180 words (t=560)
  frontier P after phase 3: 180 words (t=560)
  frontier V after phase 3: 180 words (t=560)
  frontier CU after phase 1: 180 words (t=560)
  frontier P after phase 3: 180 words (t=560)
  frontier V after phase 3: 180 words (t=560)

par=0x1.a02p+14 seq=0x1.518p+16 eff=0x1.9f4284bab68f8p-1
  phase CALC1 t=0x1.7e4p+12
  phase CALC2 t=0x1.ep+11
  phase CALC3 t=0x1.a4p+10
  phase CALC1 t=0x1.7e4p+12
  phase CALC2 t=0x1.ep+11
  phase CALC3 t=0x1.a4p+10
  comm CU 1 t=0x1.18p+9
  comm P 3 t=0x1.18p+9
  comm V 3 t=0x1.18p+9
  comm CU 1 t=0x1.18p+9
  comm P 3 t=0x1.18p+9
  comm V 3 t=0x1.18p+9
  proc 0 compute=0x1.b3p+13 access=0x1.1dp+13
  proc 1 compute=0x1.b3p+13 access=0x1.244p+13
  proc 2 compute=0x1.b3p+13 access=0x1.244p+13
  proc 3 compute=0x1.464p+13 access=0x1.bap+12

== block
H=4  T_par=45000  T_seq=86400  efficiency=48.0%  local=30960 remote=3240
  CALC1  local=7470     remote=630      t=10530
  CALC2  local=4770     remote=630      t=9150
  CALC3  local=3240     remote=360      t=2820
  CALC1  local=7470     remote=630      t=10530
  CALC2  local=4770     remote=630      t=9150
  CALC3  local=3240     remote=360      t=2820

par=0x1.5f9p+15 seq=0x1.518p+16 eff=0x1.eb851eb851eb8p-2
  phase CALC1 t=0x1.491p+13
  phase CALC2 t=0x1.1dfp+13
  phase CALC3 t=0x1.608p+11
  phase CALC1 t=0x1.491p+13
  phase CALC2 t=0x1.1dfp+13
  phase CALC3 t=0x1.608p+11
  proc 0 compute=0x1.b3p+13 access=0x1.e5ap+14
  proc 1 compute=0x1.b3p+13 access=0x1.e5ap+14
  proc 2 compute=0x1.b3p+13 access=0x1.e5ap+14
  proc 3 compute=0x1.464p+13 access=0x1.ab8p+12

== validate
reads 23400, stale 0
|golden});
    ("tomcatv", {golden|rounds 2
== lcg
H=4  T_par=30508  T_seq=99120  efficiency=81.2%  local=37814 remote=46
  RESID  local=10800    remote=0        t=8640
  NORM   local=2700     remote=0        t=1200
  COMBINE local=7        remote=23       t=727
  UPDATE local=5400     remote=0        t=3360
  RESID  local=10800    remote=0        t=8640
  NORM   local=2700     remote=0        t=1200
  COMBINE local=7        remote=23       t=727
  UPDATE local=5400     remote=0        t=3360
  redistribute PARTIAL before phase 2: 3 words (t=106)
  frontier X after phase 4: 192 words (t=584)
  frontier Y after phase 4: 192 words (t=584)
  redistribute PARTIAL before phase 0: 3 words (t=106)
  redistribute PARTIAL before phase 2: 3 words (t=106)
  frontier X after phase 4: 192 words (t=584)
  frontier Y after phase 4: 192 words (t=584)

par=0x1.dcbp+14 seq=0x1.833p+16 eff=0x1.9fdeb41c0f70ap-1
  phase RESID t=0x1.0ep+13
  phase NORM t=0x1.2cp+10
  phase COMBINE t=0x1.6b8p+9
  phase UPDATE t=0x1.a4p+11
  phase RESID t=0x1.0ep+13
  phase NORM t=0x1.2cp+10
  phase COMBINE t=0x1.6b8p+9
  phase UPDATE t=0x1.a4p+11
  comm PARTIAL 2 t=0x1.a8p+6
  comm X 4 t=0x1.24p+9
  comm Y 4 t=0x1.24p+9
  comm PARTIAL 0 t=0x1.a8p+6
  comm PARTIAL 2 t=0x1.a8p+6
  comm X 4 t=0x1.24p+9
  comm Y 4 t=0x1.24p+9
  proc 0 compute=0x1.ffep+13 access=0x1.669p+13
  proc 1 compute=0x1.fep+13 access=0x1.3bp+13
  proc 2 compute=0x1.fep+13 access=0x1.3bp+13
  proc 3 compute=0x1.7e8p+13 access=0x1.d88p+12

== block
H=4  T_par=56594  T_seq=99120  efficiency=43.8%  local=34034 remote=3826
  RESID  local=9720     remote=1080     t=17520
  NORM   local=2430     remote=270      t=3030
  COMBINE local=7        remote=23       t=727
  UPDATE local=4860     remote=540      t=7020
  RESID  local=9720     remote=1080     t=17520
  NORM   local=2430     remote=270      t=3030
  COMBINE local=7        remote=23       t=727
  UPDATE local=4860     remote=540      t=7020

par=0x1.ba24p+15 seq=0x1.833p+16 eff=0x1.c05d381e2e318p-2
  phase RESID t=0x1.11cp+14
  phase NORM t=0x1.7acp+11
  phase COMBINE t=0x1.6b8p+9
  phase UPDATE t=0x1.b6cp+12
  phase RESID t=0x1.11cp+14
  phase NORM t=0x1.7acp+11
  phase COMBINE t=0x1.6b8p+9
  phase UPDATE t=0x1.b6cp+12
  proc 0 compute=0x1.ffep+13 access=0x1.3a2cp+15
  proc 1 compute=0x1.fep+13 access=0x1.2f48p+15
  proc 2 compute=0x1.fep+13 access=0x1.2f48p+15
  proc 3 compute=0x1.7e8p+13 access=0x1.d88p+12

== validate
reads 28860, stale 0
|golden});
    ("matmul", {golden|rounds 1
== lcg
H=4  T_par=6464  T_seq=25856  efficiency=100.0%  local=17152 remote=0
  INIT   local=256      remote=0        t=128
  MULT   local=16384    remote=0        t=6144
  SCALE  local=512      remote=0        t=192

par=0x1.94p+12 seq=0x1.94p+14 eff=0x1p+0
  phase INIT t=0x1p+7
  phase MULT t=0x1.8p+12
  phase SCALE t=0x1.8p+7
  proc 0 compute=0x1.1p+11 access=0x1.0cp+12
  proc 1 compute=0x1.1p+11 access=0x1.0cp+12
  proc 2 compute=0x1.1p+11 access=0x1.0cp+12
  proc 3 compute=0x1.1p+11 access=0x1.0cp+12

== block
H=4  T_par=28736  T_seq=25856  efficiency=22.5%  local=14080 remote=3072
  INIT   local=256      remote=0        t=128
  MULT   local=13312    remote=3072     t=28416
  SCALE  local=512      remote=0        t=192

par=0x1.c1p+14 seq=0x1.94p+14 eff=0x1.ccaf9ba70e41p-3
  phase INIT t=0x1p+7
  phase MULT t=0x1.bcp+14
  phase SCALE t=0x1.8p+7
  proc 0 compute=0x1.1p+11 access=0x1.9fp+14
  proc 1 compute=0x1.1p+11 access=0x1.9fp+14
  proc 2 compute=0x1.1p+11 access=0x1.9fp+14
  proc 3 compute=0x1.1p+11 access=0x1.9fp+14

== validate
reads 12544, stale 0
|golden});
    ("adi", {golden|rounds 2
== lcg
H=4  T_par=13284  T_seq=35712  efficiency=67.2%  local=11904 remote=0
  COLSWEEP local=2976     remote=0        t=2232
  ROWSWEEP local=2976     remote=0        t=2232
  COLSWEEP local=2976     remote=0        t=2232
  ROWSWEEP local=2976     remote=0        t=2232
  redistribute U before phase 1: 768 words (t=1452)
  redistribute U before phase 0: 768 words (t=1452)
  redistribute U before phase 1: 768 words (t=1452)

par=0x1.9f2p+13 seq=0x1.17p+15 eff=0x1.581bc02c66ad7p-1
  phase COLSWEEP t=0x1.17p+11
  phase ROWSWEEP t=0x1.17p+11
  phase COLSWEEP t=0x1.17p+11
  phase ROWSWEEP t=0x1.17p+11
  comm U 1 t=0x1.6bp+10
  comm U 0 t=0x1.6bp+10
  comm U 1 t=0x1.6bp+10
  proc 0 compute=0x1.74p+12 access=0x1.74p+11
  proc 1 compute=0x1.74p+12 access=0x1.74p+11
  proc 2 compute=0x1.74p+12 access=0x1.74p+11
  proc 3 compute=0x1.74p+12 access=0x1.74p+11

== block
H=4  T_par=31888  T_seq=35712  efficiency=28.0%  local=7440 remote=4464
  COLSWEEP local=2976     remote=0        t=2232
  ROWSWEEP local=744      remote=2232     t=13712
  COLSWEEP local=2976     remote=0        t=2232
  ROWSWEEP local=744      remote=2232     t=13712

par=0x1.f24p+14 seq=0x1.17p+15 eff=0x1.1eb30f0752561p-2
  phase COLSWEEP t=0x1.17p+11
  phase ROWSWEEP t=0x1.ac8p+13
  phase COLSWEEP t=0x1.17p+11
  phase ROWSWEEP t=0x1.ac8p+13
  proc 0 compute=0x1.74p+12 access=0x1.954p+14
  proc 1 compute=0x1.74p+12 access=0x1.8d4p+14
  proc 2 compute=0x1.74p+12 access=0x1.8d4p+14
  proc 3 compute=0x1.74p+12 access=0x1.948p+14

== validate
reads 7936, stale 0
|golden});
    ("redblack", {golden|rounds 2
== lcg
H=4  T_par=564  T_seq=1764  efficiency=78.2%  local=744 remote=12
  RED    local=186      remote=3        t=141
  BLACK  local=186      remote=3        t=141
  RED    local=186      remote=3        t=141
  BLACK  local=186      remote=3        t=141

par=0x1.1ap+9 seq=0x1.b9p+10 eff=0x1.90572620ae4c4p-1
  phase RED t=0x1.1ap+7
  phase BLACK t=0x1.1ap+7
  phase RED t=0x1.1ap+7
  phase BLACK t=0x1.1ap+7
  proc 0 compute=0x1p+8 access=0x1.f4p+7
  proc 1 compute=0x1p+8 access=0x1.34p+8
  proc 2 compute=0x1p+8 access=0x1.34p+8
  proc 3 compute=0x1.ep+7 access=0x1.dcp+7

== block
H=4  T_par=570  T_seq=1764  efficiency=77.4%  local=738 remote=18
  RED    local=183      remote=6        t=144
  BLACK  local=186      remote=3        t=141
  RED    local=183      remote=6        t=144
  BLACK  local=186      remote=3        t=141

par=0x1.1dp+9 seq=0x1.b9p+10 eff=0x1.8c20563b48c2p-1
  phase RED t=0x1.2p+7
  phase BLACK t=0x1.1ap+7
  phase RED t=0x1.2p+7
  phase BLACK t=0x1.1ap+7
  proc 0 compute=0x1p+8 access=0x1.3ap+8
  proc 1 compute=0x1p+8 access=0x1.3ap+8
  proc 2 compute=0x1p+8 access=0x1.3ap+8
  proc 3 compute=0x1.ep+7 access=0x1.68p+7

== validate
reads 504, stale 0
|golden});
    ("trisolve", {golden|rounds 1
== lcg
H=4  T_par=2931  T_seq=1224  efficiency=10.4%  local=136 remote=408
  SOLVE  local=102      remote=306      t=2092
  REDUCE local=34       remote=102      t=839

par=0x1.6e6p+11 seq=0x1.32p+10 eff=0x1.aba09f4feb09bp-4
  phase SOLVE t=0x1.058p+11
  phase REDUCE t=0x1.a38p+9
  proc 0 compute=0x1.18p+7 access=0x1.124p+11
  proc 1 compute=0x1.4p+7 access=0x1.26p+11
  proc 2 compute=0x1.68p+7 access=0x1.39cp+11
  proc 3 compute=0x1.9p+7 access=0x1.4d8p+11

== block
H=4  T_par=1914  T_seq=1224  efficiency=16.0%  local=448 remote=96
  SOLVE  local=312      remote=96       t=1798
  REDUCE local=136      remote=0        t=116

par=0x1.de8p+10 seq=0x1.32p+10 eff=0x1.476c56abbc96ep-3
  phase SOLVE t=0x1.c18p+10
  phase REDUCE t=0x1.dp+6
  proc 0 compute=0x1.9p+5 access=0x1.4p+5
  proc 1 compute=0x1.04p+7 access=0x1.1cp+9
  proc 2 compute=0x1.a4p+7 access=0x1.12p+10
  proc 3 compute=0x1.22p+8 access=0x1.96p+10

== validate
reads 408, stale 0
|golden});
    ("mgrid", {golden|rounds 2
== lcg
H=4  T_par=3228  T_seq=11120  efficiency=86.1%  local=5512 remote=48
  SMOOTHF local=1010     remote=6        t=570
  RESTRICT local=501      remote=3        t=285
  SMOOTHC local=498      remote=6        t=314
  PROLONG local=747      remote=9        t=445
  SMOOTHF local=1010     remote=6        t=570
  RESTRICT local=501      remote=3        t=285
  SMOOTHC local=498      remote=6        t=314
  PROLONG local=747      remote=9        t=445

par=0x1.938p+11 seq=0x1.5b8p+13 eff=0x1.b8f1172849989p-1
  phase SMOOTHF t=0x1.1dp+9
  phase RESTRICT t=0x1.1dp+8
  phase SMOOTHC t=0x1.3ap+8
  phase PROLONG t=0x1.bdp+8
  phase SMOOTHF t=0x1.1dp+9
  phase RESTRICT t=0x1.1dp+8
  phase SMOOTHC t=0x1.3ap+8
  phase PROLONG t=0x1.bdp+8
  proc 0 compute=0x1.6p+10 access=0x1.aap+10
  proc 1 compute=0x1.6p+10 access=0x1.c7p+10
  proc 2 compute=0x1.6p+10 access=0x1.c7p+10
  proc 3 compute=0x1.4ep+10 access=0x1.6bp+10

== block
H=4  T_par=3600  T_seq=11120  efficiency=77.2%  local=5452 remote=108
  SMOOTHF local=1004     remote=12       t=602
  RESTRICT local=495      remote=9        t=317
  SMOOTHC local=492      remote=12       t=346
  PROLONG local=735      remote=21       t=535
  SMOOTHF local=1004     remote=12       t=602
  RESTRICT local=495      remote=9        t=317
  SMOOTHC local=492      remote=12       t=346
  PROLONG local=735      remote=21       t=535

par=0x1.c2p+11 seq=0x1.5b8p+13 eff=0x1.8b60b60b60b61p-1
  phase SMOOTHF t=0x1.2dp+9
  phase RESTRICT t=0x1.3dp+8
  phase SMOOTHC t=0x1.5ap+8
  phase PROLONG t=0x1.0b8p+9
  phase SMOOTHF t=0x1.2dp+9
  phase RESTRICT t=0x1.3dp+8
  phase SMOOTHC t=0x1.5ap+8
  phase PROLONG t=0x1.0b8p+9
  proc 0 compute=0x1.6p+10 access=0x1.12p+11
  proc 1 compute=0x1.6p+10 access=0x1.12p+11
  proc 2 compute=0x1.6p+10 access=0x1.12p+11
  proc 3 compute=0x1.4ep+10 access=0x1.4ep+10

== validate
reads 4044, stale 0
|golden});
  ]

let emit_update () =
  let table label snap =
    Printf.printf "(* %s *)\n" label;
    List.iter
      (fun (e : Codes.Registry.entry) ->
        Printf.printf "    (\"%s\", {golden|%s|golden});\n" e.name
          (snap e.name))
      Codes.Registry.all
  in
  table "golden" snapshot;
  table "sim_golden" sim_snapshot

let test_kernel name () =
  let expected =
    match List.assoc_opt name golden with
    | Some s -> s
    | None -> Alcotest.failf "no golden snapshot for %s" name
  in
  Alcotest.(check string) (name ^ " SPMD prose matches golden") expected
    (snapshot name)

let test_sim name () =
  let expected =
    match List.assoc_opt name sim_golden with
    | Some s -> s
    | None -> Alcotest.failf "no simulator snapshot for %s" name
  in
  Alcotest.(check string) (name ^ " simulator matches golden") expected
    (sim_snapshot name)

let () =
  if update_mode then emit_update ()
  else
    Alcotest.run "golden-spmd"
      [
        ( "spmd",
          List.map
            (fun (e : Codes.Registry.entry) ->
              Alcotest.test_case e.name `Quick (test_kernel e.name))
            Codes.Registry.all );
        ( "simulator",
          List.map
            (fun (e : Codes.Registry.entry) ->
              Alcotest.test_case e.name `Quick (test_sim e.name))
            Codes.Registry.all );
      ]
