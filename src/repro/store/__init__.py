"""Crash-safe content-addressed result store: the one persistence layer.

Sweep, fuzz, experiment, and doctor directories are all store roots (see
:mod:`repro.store.cas` for the on-disk layout).  Submodules are imported
explicitly; the record schema they persist lives in :mod:`repro.records`.

* :mod:`repro.store.fsio` — durability primitives: temp-file +
  fsync + atomic-rename commits and directory fsync.
* :mod:`repro.store.cas` — the fingerprint-keyed store itself
  (:class:`~repro.store.cas.ResultStore`): verified ``ok`` entries,
  terminal failures, audit artifacts, and forensic dumps.
* :mod:`repro.store.chaos` — deterministic fault injection for the
  crash-consistency test suite (torn writes, bit flips, killed writers).
"""
