"""The class-batched element pipeline against the per-element path it replaced.

The reference below runs the functions of :mod:`dlsfem.element` one element
at a time (``precondition_gram``, ``whiten``, ``apply_dirichlet``,
``element_ne``, ``condense_ne``/``condense_ls``,
``recover_bubbles``/``recover_bubbles_ne``) on the raw element systems of
``element_reference.compute_element``, and assembles dense systems from
them.  The production code treats whole element classes at once.  Both
compute the same quantities from the same master data in the same working
precision, so they may differ only by round-off.  Every tolerance is
``C * eps * kappa`` times the size of the compared quantity, with ``kappa``
the condition number that bounds the forward error of the step:

* element data (A, f, Btilde, ltilde): whitening with the Gram factor L and
  condensation with the bubble block, so kappa = kappa(L) * kappa(bubbles),
  the products A and f measured against |Btilde|^2 and |Btilde| |ltilde|;
* the interface solution: kappa of the globally scaled system the solver
  factors (for QR with the least-squares residual term);
* recovered bubbles: kappa(bubbles)^2, the normal-equation flavor squaring
  the bubble block;
* eta_K and the residual vector: the residual of the whitened element
  system, kappa(L) times the size of its two terms.

The other tests hold the class design to its claims: a solution does not
depend on which assembler ran first on its context, reassembly is
bit-identical, threads sharing one context get identical systems, the
element steps make the same number of triangular solves at any element
count and the tree's back-substitution one per front, ``?geqrt`` calls
(and ``?potrf`` calls on shared element blocks) grow with the depth of the
tree only, ``?potrf`` calls on per-element blocks grow with the element
count, and the block QR requests no LAPACK kernel but ``?geqrt``/``?gemqrt``.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from dlsfem import blockqr, element, linalg
from dlsfem.assembly import (
    Options,
    assemble_ne,
    assemble_overdetermined,
    build_context,
)
from dlsfem.formulation import make_case, make_formulation
from dlsfem.mesh import uniform_mesh
from dlsfem.solve import solve_ls, solve_ne

from element_reference import compute_element

C = 100.0

CASES = {
    "ultraweak-p1-single": ("ultraweak-dpg", 1, 8, "poisson-sine", "single", True),
    "ultraweak-p2-double": ("ultraweak-dpg", 2, 4, "poisson-sine", "double", True),
    "acoustics-complex128": ("acoustics-ultraweak", 2, 3, "acoustics-resonance", "double", True),
    "primal-dpg": ("primal-dpg", 2, 4, "poisson-sine10", "double", True),
    "fosls-alpha-condensed": ("fosls-strong", 2, 4, "poisson-alpha-sine", "double", True),
    "fosls-alpha-uncondensed": ("fosls-strong", 2, 4, "poisson-alpha-sine", "double", False),
    "bubnov": ("bubnov-galerkin", 2, 6, "poisson-sine10", "double", True),
}


def _asymmetric(case):
    """``case`` with a load and nonzero boundary data of no symmetry, so that
    every element's own load and the Dirichlet lift show in the results.
    Only the discrete systems are compared, so the data need not match the
    exact solution."""
    f = case.f
    data = {"f": lambda x, y: f(x, y) + x * y * y + 0.5 * x}
    if case.boundary_flux is not None:
        data["boundary_flux"] = lambda x, y, nx, ny: (1.0 + x + 2.0 * y * y) * (nx - 0.5 * ny)
    else:
        data["boundary_value"] = lambda x, y: 1.0 + x + 2.0 * y * y + x * y
    return dataclasses.replace(case, **data)


def _context(name, n=None):
    fname, p, n_case, cname, precision, condense = CASES[name]
    case = _asymmetric(make_case(cname))
    kwargs = {"alpha": case.alpha} if fname == "fosls-strong" else {}
    form = make_formulation(fname, p=p, dp=1, **kwargs)
    options = Options(condense=condense, precision=precision)
    return build_context(uniform_mesh(n or n_case), form, case, options)


def _kappa(m) -> float:
    return linalg.condition_number(m) if np.asarray(m).size else 1.0


def _reference(ctx):
    """Dense (A, f), (Btilde, ltilde) and per-element data, element by element."""
    form, mesh, opts = ctx.formulation, ctx.mesh, ctx.options
    wdtype, rdtype = opts.working_dtype(form), opts.real_dtype()
    square = form.test_conforming
    gdofs = np.concatenate(
        [lay.element_dofs + off for lay, off in zip(ctx.layouts, ctx.offsets)], axis=1
    )
    n, m = ctx.n_solve, form.n_test_local
    a = np.zeros((n, n), dtype=wdtype)
    f = np.zeros(n, dtype=wdtype)
    b = np.zeros((mesh.n_elements * m, n), dtype=wdtype)
    ell = np.zeros(mesh.n_elements * m, dtype=wdtype)
    elems, kappa_l, kappa_b = [], 1.0, 1.0
    for e in range(mesh.n_elements):
        sys = compute_element(form, mesh, e, ctx.case, ctx.rule)
        g, bk, lk = sys.g, sys.b, sys.l
        g, bk, lk, _ = element.precondition_gram(g, bk, lk)
        kappa_l = max(kappa_l, np.sqrt(_kappa(g)))
        bt, lt = element.whiten(g.astype(rdtype), bk.astype(wdtype), lk.astype(wdtype))
        gd = gdofs[e]
        bt, lt, free = element.apply_dirichlet(
            bt, lt, np.flatnonzero(ctx.fixed_mask[gd]), ctx.lift_full[gd]
        )
        if square:
            bt, lt = bt[free], lt[free]
        bub = ctx.bubble_mask[gd[free]]
        bpos, ipos = np.flatnonzero(bub), np.flatnonzero(~bub)
        kappa_b = max(kappa_b, _kappa(bt[:, bpos]))
        a_k, f_k = (bt, lt) if square else element.element_ne(bt, lt)
        rec = {"ids": gd[free], "bpos": bpos, "ipos": ipos, "bt": bt, "lt": lt}
        rows, rhs, cols = bt, lt, ctx.solve_index[gd[free]]
        if opts.condense:
            rec["schur"] = element.condense_ne(a_k, f_k, bpos, ipos)
            a_k, f_k = rec["schur"].schur, rec["schur"].rhs
            if not square:
                rec["cond"] = element.condense_ls(bt, lt, bpos, ipos)
                rows, rhs = rec["cond"].rows, rec["cond"].rhs
            cols = cols[ipos]
        a[np.ix_(cols, cols)] += a_k
        f[cols] += f_k
        if not square:
            b[e * m : (e + 1) * m, cols] = rows
            ell[e * m : (e + 1) * m] = rhs
        elems.append(rec)
    if square:
        b, ell = a, f
        a, f = b.conj().T @ b, b.conj().T @ ell
    return {"A": a, "f": f, "B": b, "l": ell, "elems": elems, "kappa_l": kappa_l, "kappa_b": kappa_b}


def _scaled_kappa(m):
    """kappa of m with unit column norms, the scaling the solvers apply."""
    d = np.linalg.norm(m, axis=0)
    return _kappa(m / d)


def _close(x, ref, tol, what, scale=None):
    """|x - ref| <= tol * scale, scale defaulting to |ref| (2-norms)."""
    err = np.linalg.norm(np.ravel(x) - np.ravel(ref))
    bound = tol * (np.linalg.norm(np.ravel(ref)) if scale is None else scale)
    assert err <= bound, f"{what}: |diff| {err:.3e} > {bound:.3e}"


def _recovered(ctx, ref, coeffs, solver):
    """Coefficients and residual data recomputed element by element from the
    interface values of ``coeffs``."""
    hom = (coeffs - ctx.lift_full).astype(ref["B"].dtype)
    full = coeffs.copy()
    eta, rvec = [], []
    for rec in ref["elems"]:
        ids, bpos, ipos = rec["ids"], rec["bpos"], rec["ipos"]
        u = hom[ids]
        qr_rows = solver == "QR" and "cond" in rec    # the QR path solved condensed rows
        if ctx.options.condense:
            if qr_rows:
                u_b = element.recover_bubbles(rec["cond"], u[ipos])
            else:
                u_b = element.recover_bubbles_ne(rec["schur"], u[ipos])
            u[bpos] = u_b
            full[ids[bpos]] = ctx.lift_full[ids[bpos]] + u_b
        r = rec["lt"] - rec["bt"] @ u
        eta.append(np.linalg.norm(r))
        if qr_rows:
            r = rec["cond"].rhs - rec["cond"].rows @ u[ipos]
        rvec.append(r)
    return full, np.array(eta), np.concatenate(rvec)


@pytest.mark.parametrize("name", list(CASES))
def test_classes_match_per_element_pipeline(name):
    ctx = _context(name)
    ref = _reference(ctx)
    eps = linalg.eps(ref["A"].dtype)
    square = ctx.formulation.test_conforming
    tol_data = C * eps * ref["kappa_l"] * ref["kappa_b"]

    a, f = assemble_ne(ctx)
    bt, lt = assemble_overdetermined(ctx)
    # A = Btilde* Btilde and f = Btilde* ltilde are sums of products
    norm_b, norm_l = np.linalg.norm(ref["B"]), np.linalg.norm(ref["l"])
    _close(a.to_dense(), ref["A"], tol_data, "A", norm_b**2)
    _close(f, ref["f"], tol_data, "f", norm_b * norm_l)
    _close(bt.to_dense(), ref["B"], tol_data, "Btilde")
    _close(lt, ref["l"], tol_data, "ltilde")

    for solver, sol in (("NE", solve_ne(a, ctx)), ("QR", solve_ls(bt, ctx))):
        # the interface solution against a double-precision solve of the reference
        bd = ref["B"].astype(np.complex128 if np.iscomplexobj(ref["B"]) else np.float64)
        ld = ref["l"].astype(bd.dtype)
        if solver == "NE":
            ad = ref["A"].astype(bd.dtype)
            u_ref = scipy.linalg.solve(ad, ref["f"].astype(bd.dtype), assume_a="pos")
            tol_u = C * eps * _scaled_kappa(ad)
        else:
            u_ref = np.linalg.lstsq(bd, ld, rcond=None)[0]
            kb = _scaled_kappa(bd)
            r = np.linalg.norm(bd @ u_ref - ld)
            tol_u = C * eps * kb * (1 + kb * r / (np.linalg.norm(bd, 2) * np.linalg.norm(u_ref)))
        _close(sol.system_vector, u_ref, tol_u, f"{solver} interface solution")

        full, eta, rvec = _recovered(ctx, ref, sol.coefficients, solver)
        _close(sol.coefficients, full, C * eps * ref["kappa_b"] ** 2, f"{solver} coefficients")
        if square:
            assert not np.any(sol.eta)
            continue
        scale = norm_l + norm_b * np.linalg.norm(full)
        tol_r = C * eps * ref["kappa_l"]
        _close(sol.eta, eta, tol_r, f"{solver} eta", scale)
        _close(sol.residual, rvec, tol_r, f"{solver} residual vector", scale)


def _solution_arrays(sol):
    return [
        sol.coefficients, sol.eta, sol.residual, sol.system_vector,
        np.array([sol.residual_norm, sol.galerkin_residual]),
    ]


def _assert_identical(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def _solve(ctx, solver):
    if solver == "NE":
        return solve_ne(assemble_ne(ctx)[0], ctx)
    return solve_ls(assemble_overdetermined(ctx)[0], ctx)


@pytest.mark.parametrize("name", ["ultraweak-p2-double", "acoustics-complex128", "ultraweak-p1-single"])
@pytest.mark.parametrize("solver,other", [("NE", "QR"), ("QR", "NE")])
def test_solution_does_not_depend_on_the_other_assembler(name, solver, other):
    alone = _solve(_context(name), solver)
    ctx = _context(name)
    _solve(ctx, other)
    _assert_identical(_solution_arrays(_solve(ctx, solver)), _solution_arrays(alone))


def _assembled(ctx):
    a, f = assemble_ne(ctx)
    bt, lt = assemble_overdetermined(ctx)
    csr = a.matrix
    return [csr.data, csr.indices, csr.indptr, f, bt.to_dense(), lt]


@pytest.mark.parametrize("name", ["ultraweak-p2-double", "fosls-alpha-condensed", "bubnov"])
def test_reassembly_is_bit_identical(name):
    ctx = _context(name)
    first = _assembled(ctx)
    _assert_identical(_assembled(ctx), first)
    _assert_identical(_assembled(_context(name)), first)


@pytest.mark.parametrize("name", ["ultraweak-p2-double", "fosls-alpha-condensed", "bubnov"])
def test_threads_assembling_one_context_agree(name):
    # a fresh context, so that the threads race to compute the class
    # factors (and the square system's load); more threads than cores and
    # a short switch interval
    ctx = _context(name)
    n_threads = 4
    barrier = threading.Barrier(n_threads, timeout=60)
    out = [None] * n_threads

    def work(i):
        barrier.wait()
        out[i] = _assembled(ctx) + _solution_arrays(_solve(ctx, "NE"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    serial = _context(name)
    expected = _assembled(serial) + _solution_arrays(_solve(serial, "NE"))
    for result in out:
        _assert_identical(result, expected)


@pytest.mark.parametrize("name", ["ultraweak-p1-single", "fosls-alpha-condensed"])
def test_triangular_solves_do_not_grow_with_the_mesh(monkeypatch, name):
    """Build, NE assembly and NE solve make a fixed number of triangular
    solves, one per element class and step, whatever the element count,
    and the back-substitution of the elimination tree one solve per front
    it is given: exactly as many as the tree made ?potrf calls.  Every
    triangular solve is counted; how the fronts grow with the mesh is held
    by ``test_ne_factorizations_grow_by_one_round_per_doubling`` (shared
    blocks) and ``test_per_element_ne_fronts_grow_with_the_elements``."""
    original = scipy.linalg.solve_triangular
    back_substitute = blockqr._back_substitute
    calls = {"element steps": 0, "back-substitution": 0}
    fronts, inside = [], [False]

    def counting(*args, **kwargs):
        calls["back-substitution" if inside[0] else "element steps"] += 1
        return original(*args, **kwargs)

    def counting_fronts(tree_fronts, *args):
        fronts.append(len(tree_fronts))
        inside[0] = True
        try:
            return back_substitute(tree_fronts, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(scipy.linalg, "solve_triangular", counting)
    monkeypatch.setattr(blockqr, "_back_substitute", counting_fronts)
    potrf = _lapack_calls(monkeypatch, "potrf")
    steps = []
    for n in (8, 16):
        calls.update({key: 0 for key in calls})
        fronts.clear()
        potrf.clear()
        ctx = _context(name, n)
        solve_ne(assemble_ne(ctx)[0], ctx)
        assert fronts == [len(potrf)] and len(potrf) > 0
        assert calls["back-substitution"] == len(potrf)
        steps.append(calls["element steps"])
    assert steps[0] == steps[1] > 0


def _lapack_calls(monkeypatch, routine):
    """List that receives the (positional, keyword) arguments of every call
    of the LAPACK ``routine`` made through the handles that
    ``scipy.linalg.get_lapack_funcs`` hands out, the way the block QR
    reaches LAPACK."""
    original = scipy.linalg.get_lapack_funcs
    calls = []

    def counting(names, *args, **kwargs):
        funcs = original(names, *args, **kwargs)
        if isinstance(names, str):
            return counted(funcs, names)
        return tuple(counted(f, name) for f, name in zip(funcs, names))

    def counted(fn, name):
        if name != routine:
            return fn

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    return calls


def test_qr_factorizations_grow_by_one_round_per_doubling(monkeypatch):
    """Overdetermined assembly and QR solve make O(log n) ?geqrt calls: the
    block QR factors each tree front once per signature, the round-1 fronts
    taking the element panels as they are, so each doubling of n adds one
    round of the same few signatures."""
    calls = _lapack_calls(monkeypatch, "geqrt")
    counts = []
    for n in (8, 16, 32, 64):
        calls.clear()
        ctx = _context("ultraweak-p2-double", n)
        solve_ls(assemble_overdetermined(ctx)[0], ctx)
        counts.append(len(calls))
    steps = np.diff(counts)
    assert counts[0] > 0 and steps[0] > 0 and np.all(steps == steps[0])


def test_ne_factorizations_grow_by_one_round_per_doubling(monkeypatch):
    """NE assembly and solve make O(log n) ?potrf calls: the Cholesky on the
    elimination tree factors each front once per signature, so each
    doubling of n adds one round of the same few signatures."""
    calls = _lapack_calls(monkeypatch, "potrf")
    counts = []
    for n in (8, 16, 32, 64):
        calls.clear()
        ctx = _context("ultraweak-p1-single", n)
        solve_ne(assemble_ne(ctx)[0], ctx)
        counts.append(len(calls))
    steps = np.diff(counts)
    assert counts[0] > 0 and steps[0] > 0 and np.all(steps == steps[0])


def test_per_element_ne_fronts_grow_with_the_elements(monkeypatch):
    """Per-element NE blocks (a variable coefficient) share no front: the
    tree factors one front per 2 x 2 group of every round, (E - 1) / 3 of
    them on a 2^L x 2^L mesh of E elements, so ?potrf calls grow with E,
    not with the depth of the tree."""
    calls = _lapack_calls(monkeypatch, "potrf")
    for n in (8, 16, 32):
        calls.clear()
        ctx = _context("fosls-alpha-condensed", n)
        assert ctx.classes[0].bt.ndim == 3
        solve_ne(assemble_ne(ctx)[0], ctx)
        assert len(calls) == (ctx.mesh.n_elements - 1) // 3


@pytest.mark.parametrize("name", ["ultraweak-p2-double", "acoustics-complex128", "bubnov"])
def test_no_solve_requests_tpqrt(monkeypatch, name):
    """The tree runs to the root: no QR solve merges rows by ?tpqrt, every
    front is factored by the compact-WY ?geqrt and projected by ?gemqrt,
    never by ?geqrf/?ormqr, and the square system's one-row panels go
    through ?geqrt fronts too."""
    original = scipy.linalg.get_lapack_funcs
    requested = []

    def recording(names, *args, **kwargs):
        requested.extend([names] if isinstance(names, str) else names)
        return original(names, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", recording)
    ctx = _context(name)
    solve_ls(assemble_overdetermined(ctx)[0], ctx)
    assert not {"tpqrt", "geqrf", "ormqr", "unmqr"} & set(requested)
    assert "geqrt" in requested


@pytest.mark.parametrize("name", ["ultraweak-p2-double", "acoustics-complex128", "bubnov"])
def test_fronts_are_factored_in_place(monkeypatch, name):
    """The block QR hands ?geqrt its fronts F-ordered and lets it overwrite
    them, so the factor takes the place of the front instead of a copy."""
    calls = _lapack_calls(monkeypatch, "geqrt")
    ctx = _context(name)
    solve_ls(assemble_overdetermined(ctx)[0], ctx)
    assert calls and all(a.flags.f_contiguous and kwargs.get("overwrite_a") for (_, a), kwargs in calls)
