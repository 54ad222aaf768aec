"""In-memory spans around calls into the program's layers.

A :class:`Tracer` replaces public functions of the ``suitesearch`` modules
with wrappers for the length of a ``with tracer.installed():`` block and
restores them afterwards; no file of the program changes. Each wrapped call
records one span (name, start, end, parent span) in flat arrays, so a
multi-million-span pass stays at ~22 bytes per span. Spans are only
meaningful in one process: fork-pool workers would keep theirs.

Wrapped boundaries, by layer:

* problems: ``evaluate`` and ``random_test`` of both problem classes
* archive: ``Archive.save``, ``Archive.sample_with_target``, ``Archive.shrink_to``
* algorithms: ``mutate``, and each run through ``harness.run_algorithm``
  (span name ``algorithms.<algorithm>``)
* core: ``TestCase.__hash__`` is counted, not spanned (it runs ~100x per
  evaluation under WTS)

Timestamps come from a clock that stops while the tracer does its own
post-call bookkeeping (span close, the archive admission check), so that
work is not charged to any layer. The remaining wrapper cost, about 1 us
per call, still lands in the caller's self time.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from suitesearch import algorithms, archive, core, harness
from suitesearch.problems import ArtificialProblem, SutProblem


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.excluded = 0.0  # seconds of tracer bookkeeping taken off the clock
        self.hash_calls = 0
        self.saves_admitted = 0
        # algorithm -> [evaluations, TestCase.__hash__ calls]
        self.per_algorithm: dict[str, list] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter() - self.excluded)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        """Ends the span; returns the wall clock reading for bookkeeping."""
        now = time.perf_counter()
        self.stack.pop()
        self.end[idx] = now - self.excluded
        return now

    def span(self, name: str, fn):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                t = self._close(idx)
                self.excluded += time.perf_counter() - t

        return traced

    def _save(self, fn):
        nid = self._name_id("archive.save")

        def traced_save(arch, test, h, capacity):
            idx = self._open(nid)
            try:
                return fn(arch, test, h, capacity)
            finally:
                t = self._close(idx)
                # Admitted when some population now stores this very test;
                # only targets with a non-zero heuristic can take it.
                pops = arch.populations
                for k, _ in h.items():
                    if any(e.test is test for e in pops[k].entries):
                        self.saves_admitted += 1
                        break
                self.excluded += time.perf_counter() - t

        return traced_save

    def _run_algorithm(self, fn):
        def traced_run(name, problem, budget, rng, plan):
            idx = self._open(self._name_id(f"algorithms.{name}"))
            hashes = self.hash_calls
            try:
                result = fn(name, problem, budget, rng, plan)
            finally:
                t = self._close(idx)
            stats = self.per_algorithm.setdefault(name, [0, 0])
            stats[0] += result.evaluations
            stats[1] += self.hash_calls - hashes
            self.excluded += time.perf_counter() - t
            return result

        return traced_run

    def _hash(self, fn):
        def counted_hash(test):
            self.hash_calls += 1
            return fn(test)

        return counted_hash

    @contextmanager
    def installed(self):
        """Wrap the program's layer boundaries; restore them on exit."""
        patches = [
            (ArtificialProblem, "evaluate", self.span("problems.evaluate", ArtificialProblem.evaluate)),
            (SutProblem, "evaluate", self.span("problems.evaluate", SutProblem.evaluate)),
            (ArtificialProblem, "random_test", self.span("problems.random_test", ArtificialProblem.random_test)),
            (SutProblem, "random_test", self.span("problems.random_test", SutProblem.random_test)),
            (archive.Archive, "save", self._save(archive.Archive.save)),
            (archive.Archive, "sample_with_target",
             self.span("archive.sample_with_target", archive.Archive.sample_with_target)),
            (archive.Archive, "shrink_to", self.span("archive.shrink_to", archive.Archive.shrink_to)),
            (algorithms, "mutate", self.span("algorithms.mutate", algorithms.mutate)),
            (harness, "run_algorithm", self._run_algorithm(harness.run_algorithm)),
            (core.TestCase, "__hash__", self._hash(core.TestCase.__hash__)),
        ]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.uint16),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def self_times(self) -> dict:
        """Span name -> (calls, self seconds): duration minus child spans."""
        name, start, end, parent = self._arrays()
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        own = duration - children
        calls = np.bincount(name, minlength=len(self.names))
        seconds = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(seconds[i])) for i, n in enumerate(self.names)}

    def write(self, path):
        """Save every span to a compressed ``.npz`` (name table + four columns)."""
        name, start, end, parent = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start, end=end, parent=parent
        )


@contextmanager
def run_timer(durations: dict):
    """Record the wall seconds of each algorithm run, per algorithm, and nothing else."""
    original = harness.run_algorithm

    def timed_run(name, *args):
        t0 = time.perf_counter()
        try:
            return original(name, *args)
        finally:
            durations.setdefault(name, []).append(time.perf_counter() - t0)

    harness.run_algorithm = timed_run
    try:
        yield
    finally:
        harness.run_algorithm = original
