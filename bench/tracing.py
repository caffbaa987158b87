"""Span tracing of a dlsfem study from outside the library.

Every layer of a study is reached through a module-level name (a function
imported into ``dlsfem.studies`` or ``dlsfem.solve``, a method of
``RectangularRowBlocked`` or ``Formulation``, or the ``scipy``/``numpy``/
``linalg`` module a library module calls LAPACK through).  ``Tracer.install``
replaces each of those names by a wrapper that records a span (name, start,
end, parent, level) plus counts read from the call's arguments and result;
``Tracer.restore`` puts every original back and reports any name it could
not restore.  Nothing in ``src/`` is modified.

Operation counts are computed from array shapes, not measured:

* ``geqrf`` of an m x n stack: 2 m n^2 - 2 n^3 / 3 flop (m >= n), times 4
  for complex data;
* Cholesky: N bw^2 flop for a band of half-width bw (N^3 / 3 when dense),
  times 4 for complex data.
"""

from __future__ import annotations

import time

import numpy as np

# layer metrics that are self times of a span of the same name
TIMED_LAYERS = (
    "studies.run_study",
    "mesh.uniform_mesh",
    "formulation.kernels",
    "assembly.build_context",
    "assembly.assemble_ls",
    "assembly.assemble_ne",
    "assembly.precondition",
    "assembly.matvec",
    "solve.solve_ls",
    "solve.solve_ne",
    "blockqr.solve",
    "blockqr.geqrf",
    "solve.cholesky",
    "solve.recover",
    "solve.indicators",
    "solve.error_norms",
    "solve.rho",
    "studies.cond_diagnostics",
    "linalg.dense_spectrum",
)


class Proxy:
    """Stand-in for a module: overridden attributes, the rest delegated."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def geqrf_flop(m: int, n: int, complex_data: bool) -> float:
    if m < n:
        m, n = n, m
    flop = 2.0 * m * n * n - 2.0 * n**3 / 3.0
    return 4.0 * flop if complex_data else flop


def cholesky_flop(n: int, bw: int, complex_data: bool) -> float:
    flop = n**3 / 3.0 if bw >= n - 1 else float(n) * bw * bw
    return 4.0 * flop if complex_data else flop


class Tracer:
    """In-memory span recorder; one instance per traced study."""

    def __init__(self):
        self.spans = []        # dicts: id, name, start, end, parent, level, counts
        self._stack = []
        self.level = None
        self._patches = []     # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "level": self.level,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value):
        """Attach a count to the innermost open span."""
        if self._stack:
            counts = self._stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + value

    def _wrapped(self, fn, name, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span["counts"], args, result)
                return result
            finally:
                self.close(span)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)
        return original

    def wrap(self, owner, attr, name, before=None, after=None):
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._set(owner, attr, self._wrapped(fn, name, before, after))

    def install(self):
        """Wrap every layer boundary of ``dlsfem.studies.run_study``."""
        import scipy
        import scipy.linalg

        from dlsfem import assembly, blockqr, formulation, linalg, solve, studies

        def set_level(args, kwargs):
            self.level = int(args[0] if args else kwargs["n"])

        def context_counts(counts, args, ctx):
            counts["elements"] = len(ctx.records) or args[0].n_elements

        def ls_counts(counts, args, result):
            counts["ls_rows"] = result[0].n_rows

        def ne_counts(counts, args, result):
            counts["ne_nnz"] = result[0].matrix.nnz

        def cond_counts(counts, args, result):
            counts["cond_calls"] = 1
            counts["cond_useful"] = int(any(c is not None for c in result))

        def geqrf_counts(counts, args, result):
            m, n = args[0].shape
            counts["calls"] = 1
            counts["width"] = n - 1          # last column is the right-hand side
            counts["flop"] = geqrf_flop(m, n, np.iscomplexobj(args[0]))

        def dense_cholesky_counts(counts, args, result):
            n = args[0].shape[0]
            counts["bandwidth"] = n - 1
            counts["flop"] = cholesky_flop(n, n - 1, np.iscomplexobj(args[0]))

        def banded_factor(ab, *args, **kwargs):
            # inside the solve.cholesky span: ab is (bw + 1, N)
            bw, n = ab.shape[0] - 1, ab.shape[1]
            self.count("bandwidth", bw)
            self.count("flop", cholesky_flop(n, bw, np.iscomplexobj(ab)))
            return scipy.linalg.cholesky_banded(ab, *args, **kwargs)

        for mod in (studies, solve):
            # the same precondition functions are imported into both modules
            self.wrap(mod, "precondition_global", "assembly.precondition")
            self.wrap(mod, "precondition_global_rect", "assembly.precondition")
        self.wrap(studies, "uniform_mesh", "mesh.uniform_mesh", before=set_level)
        self.wrap(formulation.Formulation, "kernels", "formulation.kernels")
        self.wrap(studies, "build_context", "assembly.build_context", after=context_counts)
        self.wrap(studies, "build_square_context", "assembly.build_context", after=context_counts)
        self.wrap(studies, "assemble_overdetermined", "assembly.assemble_ls", after=ls_counts)
        self.wrap(studies, "assemble_ne", "assembly.assemble_ne", after=ne_counts)
        self.wrap(studies, "solve_ls", "solve.solve_ls")
        self.wrap(studies, "solve_ne", "solve.solve_ne")
        self.wrap(studies, "error_norms", "solve.error_norms")
        self.wrap(studies, "residual_rho", "solve.rho")
        self.wrap(studies, "_cond_diagnostics", "studies.cond_diagnostics", after=cond_counts)
        self.wrap(assembly.RectangularRowBlocked, "matvec", "assembly.matvec")
        self.wrap(assembly.RectangularRowBlocked, "rmatvec", "assembly.matvec")
        self.wrap(solve, "solve_blocked_ls", "blockqr.solve")
        self.wrap(solve, "_banded_cholesky_solve", "solve.cholesky")
        self.wrap(solve, "_recover", "solve.recover")
        self.wrap(solve, "_indicators", "solve.indicators")

        qr = self._wrapped(scipy.linalg.qr, "blockqr.geqrf", after=geqrf_counts)
        self._set(blockqr, "scipy", Proxy(scipy, linalg=Proxy(scipy.linalg, qr=qr)))
        self._set(solve, "scipy", Proxy(scipy, linalg=Proxy(scipy.linalg, cholesky_banded=banded_factor)))
        spd = self._wrapped(linalg.solve_spd, "solve.cholesky", after=dense_cholesky_counts)
        self._set(solve, "linalg", Proxy(linalg, solve_spd=spd))
        cond = self._wrapped(linalg.condition_number, "linalg.dense_spectrum")
        self._set(studies, "linalg", Proxy(linalg, condition_number=cond))
        eigvalsh = self._wrapped(np.linalg.eigvalsh, "linalg.dense_spectrum")
        self._set(studies, "np", Proxy(np, linalg=Proxy(np.linalg, eigvalsh=eigvalsh)))

    def restore(self) -> list:
        """Put every original back; returns the names that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = []
        for owner, attr, original in self._patches:
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if now is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches = []
        return bad


def self_times(spans):
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans, level=None) -> dict:
    """Per-layer totals of one traced study, or of one of its levels."""
    selfs = self_times(spans)
    if level is not None:
        keep = [i for i, s in enumerate(spans) if s["level"] == level]
        spans, selfs = [spans[i] for i in keep], [selfs[i] for i in keep]
    out = {f"{name}_s": 0.0 for name in TIMED_LAYERS}
    out["studies.cond_diagnostics_total_s"] = 0.0
    counts = {}
    width_max = bw_max = 0
    for s, t in zip(spans, selfs):
        out[s["name"] + "_s"] += t
        if s["name"] == "studies.cond_diagnostics":
            out["studies.cond_diagnostics_total_s"] += s["end"] - s["start"]
        for key, val in s["counts"].items():
            counts[(s["name"], key)] = counts.get((s["name"], key), 0) + val
        if s["name"] == "blockqr.geqrf":
            width_max = max(width_max, s["counts"]["width"])
        if s["name"] == "solve.cholesky" and "bandwidth" in s["counts"]:
            bw_max = max(bw_max, s["counts"]["bandwidth"])
    n_matvec = sum(1 for s in spans if s["name"] == "assembly.matvec")
    geqrf_flop_total = counts.get(("blockqr.geqrf", "flop"), 0.0)
    chol_flop_total = counts.get(("solve.cholesky", "flop"), 0.0)
    cond_calls = counts.get(("studies.cond_diagnostics", "cond_calls"), 0)
    out.update(
        {
            "blockqr.geqrf_calls": counts.get(("blockqr.geqrf", "calls"), 0),
            "blockqr.window_width_max": width_max,
            "blockqr.geqrf_gflop": geqrf_flop_total / 1e9,
            "blockqr.geqrf_gflops": _rate(geqrf_flop_total, out["blockqr.geqrf_s"]),
            "assembly.ne_nnz": counts.get(("assembly.assemble_ne", "ne_nnz"), 0),
            "solve.cholesky_bandwidth": bw_max,
            "solve.cholesky_gflop": chol_flop_total / 1e9,
            "solve.cholesky_gflops": _rate(chol_flop_total, out["solve.cholesky_s"]),
            "assembly.elements": counts.get(("assembly.build_context", "elements"), 0),
            "assembly.ls_rows": counts.get(("assembly.assemble_ls", "ls_rows"), 0),
            "assembly.matvec_calls": n_matvec,
            "studies.cond_useful_ratio": (
                counts.get(("studies.cond_diagnostics", "cond_useful"), 0) / cond_calls
                if cond_calls else 0.0
            ),
        }
    )
    return out


def _rate(flop: float, seconds: float) -> float:
    return flop / seconds / 1e9 if seconds > 0 else 0.0
