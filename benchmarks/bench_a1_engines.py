"""A1 — engine ablation: quadratic vs electrostatic global placement.

The repository keeps two global-placement engines: the SimPL-style
quadratic engine (B2B wirelength with spreading anchors, the default)
and the ePlace-style electrostatic engine (FFT Poisson density with a
Nesterov loop).  This bench places one small adder design with each
under the baseline flow and reports quality and runtime side by side.
"""

from common import save_result

from repro.core import BaselinePlacer, PlacerOptions
from repro.eval import evaluate_placement, format_table
from repro.gen import UnitSpec, compose_design
from repro.place.multilevel import ENGINES


def _make():
    return compose_design("a1", [UnitSpec("ripple_adder", 8)],
                          glue_cells=150, seed=21)


def _run_a1() -> str:
    rows = []
    for engine in ENGINES:
        design = _make()
        outcome = BaselinePlacer(PlacerOptions(engine=engine)).place(
            design.netlist, design.region)
        report = evaluate_placement(design.netlist, design.region)
        rows.append({
            "engine": engine,
            "hpwl": round(outcome.hpwl_final, 0),
            "steiner": round(report.steiner, 0),
            "legal": outcome.legal,
            "time_s": round(outcome.runtime_s, 2),
        })
    return format_table(rows, title="A1: engine ablation (8-bit adder "
                                    "design, baseline flow)")


def test_a1_engine_ablation(benchmark):
    text = benchmark.pedantic(_run_a1, rounds=1, iterations=1)
    save_result("a1_engines", text)
    assert all(engine in text for engine in ENGINES)
