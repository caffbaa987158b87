"""One element's raw system, the per-element reference of the tests.

The library computes the element systems of a whole element class at once
from the master kernels (``assembly.build_context``).  The functions here
evaluate the forms of a single element at its own position, the path the
class-batched pipeline is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ElementSystem:
    """Raw element triple (G_K, B_K, l_K)."""

    g: np.ndarray
    b: np.ndarray
    l: np.ndarray


def eval_forms(form, h: float, rule, origin=None, case=None):
    """Element contributions (G_K, B_K, l_K) for one element.

    ``origin`` is the element's lower-left corner; it is required
    whenever the load or a variable coefficient must be evaluated.
    """
    ker = form.kernels(h, rule)
    g = ker["G"].copy()
    b = ker["B"].copy()
    ell = np.zeros(form.n_test_local, dtype=form.dtype)
    if origin is not None:
        x = origin[0] + h * rule.points[:, 0]
        y = origin[1] + h * rule.points[:, 1]
        if ker["alpha_var"] is not None:
            av = ker["alpha_var"]
            avals = form.alpha(x, y)
            b[av["rows"], av["cols"]] += np.einsum(
                "ip,p,jp->ij", av["test_tab"], rule.weights * avals, av["trial_tab"]
            )
        if case is not None:
            fvals = case.f(x, y)
            ell[ker["load_rows"]] = np.einsum(
                "ip,p->i", ker["load_table"], rule.weights * fvals
            )
    return g, b, ell


def compute_element(form, mesh_obj, elem: int, case, rule) -> ElementSystem:
    """Raw element system (G_K, B_K, l_K) for one mesh element."""
    origin = mesh_obj.element_origins()[elem]
    g, b, l = eval_forms(form, mesh_obj.h, rule, origin=origin, case=case)
    return ElementSystem(g=g, b=b, l=l)
