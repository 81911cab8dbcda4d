"""Set-up probe: a fresh interpreter imports the package and answers one
tiny control question from preference text. `run.py` times whole runs of
this script and checks what it prints.

The instance is the README's four-candidate Bucklin example; destructive
control of candidate 1 keeps at most two of the three voters.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ballotcontrol import ControlSpec, expand_voters, parse_preflib, solve_control  # noqa: E402

TEXT = "# NUMBER ALTERNATIVES: 4\n1: 1,2,3,4\n1: 1,3,2,4\n1: 4,3,2,1\n"

outcome = solve_control(
    expand_voters(parse_preflib(TEXT)),
    ControlSpec("bucklin", "delete-voters", "destructive", 1),
)
print(json.dumps({"status": outcome.solution.status, "objective": outcome.solution.objective, "kept": outcome.solution.kept}))
