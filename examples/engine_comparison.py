"""Engine comparison: quadratic vs electrostatic.

Run::

    python examples/engine_comparison.py

Places one small adder design with the SimPL-style quadratic flow and
the ePlace-style electrostatic flow and prints quality/runtime.
"""

from repro import (BaselinePlacer, PlacerOptions, UnitSpec, compose_design,
                   evaluate_placement, format_table)


def make_design():
    return compose_design("engines", [UnitSpec("ripple_adder", 8)],
                          glue_cells=150, seed=21)


def main() -> None:
    rows = []

    for engine in ("quadratic", "electro"):
        design = make_design()
        opts = PlacerOptions(engine=engine)
        outcome = BaselinePlacer(opts).place(design.netlist, design.region)
        report = evaluate_placement(design.netlist, design.region)
        rows.append({"engine": engine,
                     "hpwl": round(outcome.hpwl_final, 0),
                     "steiner": round(report.steiner, 0),
                     "legal": outcome.legal,
                     "time_s": round(outcome.runtime_s, 1)})

    print(format_table(rows, title="engine comparison (8-bit adder design)"))


if __name__ == "__main__":
    main()
