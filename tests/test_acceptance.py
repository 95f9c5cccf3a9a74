"""Acceptance gate: one test per criterion, sharing module-scoped sweeps.

Criterion 2's max-nodal clause is expected to fail: the maximum over
unknown nodes superconverges at order ~3.1-3.3, outside the stated band
[1.7, 2.2]. The band matches the gap at the removed straight-edge node
positions (the chord_gap diagnostic), which criterion 2's assertion
message cross-checks. The README's test section documents this.
"""

import math
import time
from math import factorial

import numpy as np
import pytest

from shiftfem.analysis import (chord_node_gap, convergence_orders,
                               error_norms, error_setup, inf_sup_estimate)
from shiftfem.assembly import assemble, assemble_gram, shift_update
from shiftfem.cli import MESH_FAMILIES
from shiftfem.linsolve import solve
from shiftfem.mesh import classify_elements, gen_unit_square_mesh
from shiftfem.problems import by_name, polygon_patch
from shiftfem.quadrature import rule_for_degree, triangle_area
from shiftfem.spaces import build_dof_map, build_local_bases, element_node_layouts

GRAD_BAND = (1.85, 2.1)
L2_BAND = (2.85, 3.1)
MAX_BAND = (1.7, 2.2)
K3_BAND = (2.8, 3.2)
REF_GRAD_ELLIPSE_64 = 0.232998e-4
REF_L2_ELLIPSE_64 = 0.363247e-7
REF_GRAD_ANNULUS_64 = 0.524545e-4
MAGNITUDE_FACTOR = 3.0


def _sweep(problem_name, params, k=2, extension_mode="analytic",
           alpha_upto=0, with_interp=False):
    prob = by_name(problem_name, k=k, extension_mode=extension_mode)
    mesh_of = MESH_FAMILIES[problem_name][1]
    out = {"reports": [], "interp": [], "kt": [], "alpha": {}, "gap": []}
    t0 = time.perf_counter()
    for p in params:
        mesh = classify_elements(mesh_of(p, 0.5), prob.geom)
        lay = element_node_layouts(mesh, prob.geom, k)
        bases = build_local_bases(mesh, k, lay)
        dm = build_dof_map(mesh, bases, dirichlet_data=prob.d)
        sysm = assemble(mesh, dm, bases, prob)
        x = solve(sysm.A, sysm.rhs).x
        setup = error_setup(mesh, dm, bases, prob.exact)
        out["reports"].append(error_norms(setup, x, param=p))
        out["kt"].append(float(bases.kt_deviation.max(initial=0.0)))
        out["gap"].append(chord_node_gap(mesh, bases, prob.exact.value))
        if with_interp:
            # the interpolant's unknown-node values; its Dirichlet ones are the data
            free = dm.node_coords[~dm.dirichlet_mask]
            out["interp"].append(error_norms(setup, prob.exact.value(*free.T), param=p))
        if p <= alpha_upto:
            out["alpha"][p] = inf_sup_estimate(assemble_gram(dm, sysm.blocks),
                                               shift_update(dm, sysm.blocks, bases))
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def ellipse_sweep():
    return _sweep("ellipse_test1", (4, 8, 16, 32, 64),
                  alpha_upto=16, with_interp=True)


@pytest.fixture(scope="module")
def annulus_sweep():
    return _sweep("annulus_test2", (4, 8, 16, 32, 64),
                  alpha_upto=16, with_interp=True)


@pytest.fixture(scope="module")
def annulus_sweep_zero():
    return _sweep("annulus_test2", (4, 8, 16, 32, 64),
                  extension_mode="zero_outside")


@pytest.fixture(scope="module")
def ellipse_sweep_k3():
    return _sweep("ellipse_test1", (4, 8, 16, 32), k=3)


def _orders(reports, norm):
    tab = convergence_orders(reports)
    return {"grad": tab.grad_orders, "l2": tab.l2_orders,
            "max": tab.max_orders}[norm]


def _fmt(vals):
    return "[" + ", ".join(f"{v:.3f}" for v in vals) + "]"


def test_acceptance_01_patch_test():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (2, 3):
        prob = polygon_patch(k)
        mesh = classify_elements(gen_unit_square_mesh(4), prob.geom)
        lay = element_node_layouts(mesh, prob.geom, k)
        bases = build_local_bases(mesh, k, lay)
        dm = build_dof_map(mesh, bases, dirichlet_data=prob.d)
        sysm = assemble(mesh, dm, bases, prob)
        x = solve(sysm.A, sysm.rhs).x
        r = error_norms(error_setup(mesh, dm, bases, prob.exact), x, param=4)
        worst = max(worst, r.grad_err, r.l2_err, r.max_nodal_err)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 1 (patch test): worst error {worst:.3e}, {elapsed:.2f}s"
          f" -> {'PASS' if worst <= 1e-9 and elapsed < 5 else 'FAIL'}")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_acceptance_02_curved_domain_orders(ellipse_sweep):
    reports = ellipse_sweep["reports"]
    grad = _orders(reports, "grad")
    l2 = _orders(reports, "l2")
    mx = _orders(reports, "max")
    # "for J >= 8": pairs whose coarser mesh has J >= 8
    grad_ok = all(GRAD_BAND[0] <= p <= GRAD_BAND[1] for p in grad[1:])
    l2_ok = all(L2_BAND[0] <= p <= L2_BAND[1] for p in l2)
    max_ok = all(MAX_BAND[0] <= p <= MAX_BAND[1] for p in mx[1:])
    time_ok = ellipse_sweep["elapsed"] < 180
    ok = grad_ok and l2_ok and max_ok and time_ok
    print(f"ACCEPTANCE 2 (curved-domain orders): grad {_fmt(grad)} l2 {_fmt(l2)}"
          f" max {_fmt(mx)}, {ellipse_sweep['elapsed']:.1f}s"
          f" -> {'PASS' if ok else 'FAIL'}")
    assert grad_ok, f"grad orders {_fmt(grad)} outside {GRAD_BAND} for J >= 8"
    assert l2_ok, f"l2 orders {_fmt(l2)} outside {L2_BAND}"
    assert time_ok
    gap_orders = [math.log2(a / b) for a, b in
                  zip(ellipse_sweep["gap"], ellipse_sweep["gap"][1:])]
    assert max_ok, (
        f"max-nodal orders {_fmt(mx)} outside {MAX_BAND}: the unknown-node "
        f"maximum superconverges. The stated band is the decay rate of the "
        f"gap at removed straight-edge node positions, reported as "
        f"chord_gap (orders {_fmt(gap_orders)}, all within {MAX_BAND}).")


def test_acceptance_03_curved_domain_magnitudes(ellipse_sweep):
    r64 = ellipse_sweep["reports"][-1]
    grad_ratio = r64.grad_err / REF_GRAD_ELLIPSE_64
    l2_ratio = r64.l2_err / REF_L2_ELLIPSE_64
    ok = (1 / MAGNITUDE_FACTOR <= grad_ratio <= MAGNITUDE_FACTOR
          and 1 / MAGNITUDE_FACTOR <= l2_ratio <= MAGNITUDE_FACTOR)
    print(f"ACCEPTANCE 3 (finest-mesh magnitudes): grad {r64.grad_err:.6e} "
          f"({grad_ratio:.3f}x reference), l2 {r64.l2_err:.6e} "
          f"({l2_ratio:.3f}x reference) -> {'PASS' if ok else 'FAIL'}")
    # Not within 3 significant digits of the reference: this mesh family's
    # interior structure differs from the reference experiment's (the
    # boundary partition matches exactly; see the annulus magnitudes).
    assert ok


def test_acceptance_04_annulus_orders_both_extensions(annulus_sweep,
                                                      annulus_sweep_zero):
    msgs, ok = [], True
    for name, sweep in (("analytic", annulus_sweep),
                        ("zero_outside", annulus_sweep_zero)):
        grad = _orders(sweep["reports"], "grad")
        l2 = _orders(sweep["reports"], "l2")
        grad_ok = all(GRAD_BAND[0] <= p <= GRAD_BAND[1] for p in grad[1:])
        l2_ok = all(L2_BAND[0] <= p <= L2_BAND[1] for p in l2)
        ratio = sweep["reports"][-1].grad_err / REF_GRAD_ANNULUS_64
        mag_ok = 1 / MAGNITUDE_FACTOR <= ratio <= MAGNITUDE_FACTOR
        ok = ok and grad_ok and l2_ok and mag_ok and sweep["elapsed"] < 180
        msgs.append(f"{name}: grad {_fmt(grad)} l2 {_fmt(l2)} "
                    f"grad@64 {ratio:.5f}x reference")
    print(f"ACCEPTANCE 4 (annulus orders, both extensions): {'; '.join(msgs)}"
          f" -> {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(msgs)


def test_acceptance_05_cubic_rate(ellipse_sweep_k3):
    grad = _orders(ellipse_sweep_k3["reports"], "grad")
    ok = (all(K3_BAND[0] <= p <= K3_BAND[1] for p in grad)
          and ellipse_sweep_k3["elapsed"] < 180)
    print(f"ACCEPTANCE 5 (k=3 gradient rate): orders {_fmt(grad)},"
          f" {ellipse_sweep_k3['elapsed']:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"k=3 grad orders {_fmt(grad)} outside {K3_BAND}"


def test_acceptance_06_node_shift_system_deviation(ellipse_sweep, annulus_sweep):
    # Local systems all inverted during the sweeps (a singular one raises);
    # here: max deviation from identity decays like h per doubling.
    ok = True
    msgs = []
    for name, sweep in (("ellipse", ellipse_sweep), ("annulus", annulus_sweep)):
        kt = sweep["kt"]
        ratios = [a / b for a, b in zip(kt, kt[1:])]
        ok = ok and all(1.5 <= r <= 3.0 for r in ratios)
        msgs.append(f"{name} ratios {_fmt(ratios)}")
    print(f"ACCEPTANCE 6 (node-shift deviation O(h)): {'; '.join(msgs)}"
          f" -> {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(msgs)


def test_acceptance_07_inf_sup_stability(ellipse_sweep, annulus_sweep):
    ok = True
    msgs = []
    for name, sweep in (("ellipse", ellipse_sweep), ("annulus", annulus_sweep)):
        alphas = [sweep["alpha"][p] for p in (4, 8, 16)]
        spread = max(alphas) / min(alphas) - 1.0
        ok = ok and min(alphas) >= 0.1 and spread <= 0.25
        msgs.append(f"{name} alpha {_fmt(alphas)} spread {spread:.3%}")
    print(f"ACCEPTANCE 7 (inf-sup stability): {'; '.join(msgs)}"
          f" -> {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(msgs)


def test_acceptance_08_interpolation_rate(ellipse_sweep, annulus_sweep):
    k = 2
    band = (k - 0.2, k + 0.3)
    ok = True
    msgs = []
    for name, sweep in (("ellipse", ellipse_sweep), ("annulus", annulus_sweep)):
        orders = _orders(sweep["interp"], "grad")
        ok = ok and band[0] <= orders[-1] <= band[1]
        msgs.append(f"{name} {_fmt(orders)}")
    print(f"ACCEPTANCE 8 (interpolation rate ~ k): {'; '.join(msgs)}"
          f" -> {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(msgs)


def test_acceptance_09_quadrature_exactness():
    ref_tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    worst = 0.0
    for deg in (1, 2, 4, 5, 6, 8, 10):
        rule = rule_for_degree(deg)
        x, y = rule.physical_points(ref_tri).T
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                approx = abs(triangle_area(ref_tri)) * rule.weights @ (x ** a * y ** b)
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                worst = max(worst, abs(approx - exact) / exact)
    print(f"ACCEPTANCE 9 (quadrature exactness): worst relative error "
          f"{worst:.2e} -> {'PASS' if worst <= 1e-13 else 'FAIL'}")
    assert worst <= 1e-13


def test_acceptance_10_quasi_optimality(ellipse_sweep, annulus_sweep):
    ok = True
    msgs = []
    for name, sweep in (("ellipse", ellipse_sweep), ("annulus", annulus_sweep)):
        ratios = [s.grad_err / i.grad_err
                  for s, i in zip(sweep["reports"], sweep["interp"])]
        ok = ok and all(r <= 5.0 for r in ratios)
        msgs.append(f"{name} {_fmt(ratios)}")
    print(f"ACCEPTANCE 10 (quasi-optimality <= 5x): {'; '.join(msgs)}"
          f" -> {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(msgs)
