"""Segmented replay: the one replay path behind ``Simulator.run()``.

:func:`repro.vector.engine.replay` owns the request stream, the warm-up
boundary and the summary, and feeds the trace one segment at a time to
one of two kinds of segment consumer:

* a per-design batch kernel (:mod:`repro.vector.kernels`), which
  precomputes everything that does not depend on simulation order with
  NumPy (address decomposition, hit/miss classification, bank/row
  mapping) and drives one tight Python loop per segment over the
  precomputed columns, inlining the scalar code's arithmetic in the same
  order so every stat, energy float and stored byte is identical;
* the scalar reference, :class:`repro.vector.engine.ScalarReplay`, which
  runs each request object through the system frontend.  It replays
  designs and configurations without a kernel, and every design under
  ``Simulator(config, engine="interp")`` — the byte-parity reference.
"""
