"""Print the golden digest tables as the code computes them now.

    PYTHONPATH=src python tests/golden_digests.py [TABLE ...]

Prints each named table (all of them by default) as a Python literal to
paste over the one in its test file: `GOLDEN`, `SOLVE_GOLDEN` and
`OUTCOME_GOLDEN` of `test_model_golden.py`, `GOLDEN_CLI` and
`GOLDEN_CLI_OUTCOMES` of `test_cli.py`, `EXPORT_GOLDEN` of `test_ilp.py`
(the LP and MPS exports of its hand-built and random edge-case models),
`PROPAGATION_GOLDEN` of `test_solver.py` (bound propagation on random
boxes), each a dict, and the single digest `UNMERGED_GOLDEN` of
`test_solver.py`. A change that moves the search or the propagation on
purpose runs it at its parent commit and at the change, and records every
digest that differs, old and new, with the reason.
"""

import sys
import tempfile

import test_cli
import test_ilp
import test_model_golden as models
import test_solver


def cli_table(index, commands):
    table = {}
    for command in commands:
        for kind in test_cli._GOLDEN_KINDS:
            with tempfile.TemporaryDirectory() as folder:
                table[(command, kind)] = test_cli.golden_digests(command, kind, folder)[index]
    return table


TABLES = {
    "GOLDEN": lambda: {key: models.sweep_digest(*key) for key in sorted(models.GOLDEN)},
    "SOLVE_GOLDEN": lambda: {key: models.solve_digest(key) for key in sorted(models.SOLVE_GOLDEN)},
    "OUTCOME_GOLDEN": lambda: {
        key: models.outcome_digest(key) for key in sorted(models.SOLVE_GOLDEN)
    },
    "GOLDEN_CLI": lambda: cli_table(0, ("winner", "control", "verify", "export")),
    "GOLDEN_CLI_OUTCOMES": lambda: cli_table(1, ("control", "verify")),
    "EXPORT_GOLDEN": lambda: {kind: test_ilp.export_digest(kind) for kind in sorted(test_ilp.EXPORT_GOLDEN)},
    "PROPAGATION_GOLDEN": lambda: {
        kind: test_solver.propagation_digest(kind)
        for kind in sorted(test_solver.PROPAGATION_GOLDEN)
    },
    "UNMERGED_GOLDEN": test_solver.unmerged_digest,
}


def main(names):
    unknown = sorted(set(names) - set(TABLES))
    if unknown:
        sys.exit(f"unknown table {', '.join(unknown)}; known: {', '.join(TABLES)}")
    for name in names or TABLES:
        table = TABLES[name]()
        if isinstance(table, str):
            print(f'{name} = "{table}"\n')
            continue
        print(f"{name} = {{")
        for key, digest in table.items():
            print(f"    {key!r}: (\n        \"{digest}\"\n    ),")
        print("}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
