"""The committed mutants stay applicable while the code they mutate moves.

``mutants/run.py`` (outside the tier-1 suite) applies each mutant of
``mutants/mutants.json`` and runs the test files it names; this checks,
without running them, that each anchor still occurs exactly once in its
file and that each mutant names test files that exist.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text(encoding="utf-8"))


def test_every_anchor_occurs_exactly_once_in_its_file():
    counts = {m["id"]: (ROOT / m["file"]).read_text(encoding="utf-8").count(m["anchor"])
              for m in MUTANTS}
    assert counts == {m["id"]: 1 for m in MUTANTS}


def test_every_mutant_changes_its_file_and_names_existing_tests():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m["replacement"] != m["anchor"], m["id"]
        assert m["tests"] and all((ROOT / t).is_file() for t in m["tests"]), m["id"]
