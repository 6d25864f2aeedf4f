"""The CLI's exit contract under config mutations: 0 means pass, 1 a failed
verdict with its ``FAIL`` line, 2 a usage or config error with one ``error:``
line; nothing raises.

Each example changes one key of a tiny claims config, in an experiment
entry, in ``tolerances`` or at the top level, to a value of the wrong type,
range or shape, or deletes it, and runs one claim from the config file.
"""

import contextlib
import copy
import io
import json
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim.cli import main

TINY = {"points": 2**7 + 1, "scales": [2, 5]}
CONFIG = {
    "tolerances": {
        "constancy_iqr": 0.5, "inequality_slack": 0.5, "equality_tol": 0.5,
        "corollary_below": 0.5, "corollary_above": 0.5, "example74_min_gap": 0.0,
    },
    "experiments": {
        "constancy": dict(TINY, drift="psi_n:16", set="uniform", d=1, seeds=list(range(1, 9)),
                          methods=["box"], refine=4, target=None),
        "cor14-bound": dict(TINY, set="power:1", seeds=[1]),
        "example-53": dict(TINY, schedule="custom(16,64)", truncation=2, seeds=[1],
                           target=[1.0, 5.0]),
    },
}
CLAIMS = tuple(CONFIG["experiments"])
ENTRY_KEYS = ("drift", "set", "d", "seeds", "points", "scales", "methods", "refine", "target",
              "schedule", "truncation", "bogus")
STAIRCASE = {"kind": "staircase_table", "n": 16}
VALUES = (None, True, 0, -1, 1.5, 10**12, 10**400, float("nan"), float("inf"), "x", "power:-1",
          [], [1], [3, 2], ["box", "x"], {}, dict(STAIRCASE, n=0), dict(STAIRCASE, n=2**40),
          dict(STAIRCASE, d=10**12))
DELETE = object()

BOUNDED = settings(max_examples=200, deadline=timedelta(seconds=2), database=None,
                   derandomize=True)


@st.composite
def mutations(draw):
    """``(claim, config)``: the tiny config with one key changed or deleted."""
    config = copy.deepcopy(CONFIG)
    claim = draw(st.sampled_from(CLAIMS))
    where = draw(st.sampled_from(("entry", "tolerances", "top")))
    if where == "entry":
        block, keys = config["experiments"][claim], ENTRY_KEYS
    elif where == "tolerances":
        block, keys = config["tolerances"], (*config["tolerances"], "bogus")
    else:
        block, keys = config, ("tolerances", "experiments", "bogus")
    key = draw(st.sampled_from(keys))
    value = draw(st.sampled_from((DELETE, *VALUES)))
    if value is DELETE:
        block.pop(key, None)
    elif where == "top" and key == "bogus":
        config = value  # the whole file holds a value of another shape
    else:
        block[key] = value
    return claim, config


@BOUNDED
@given(mutations())
def test_a_mutated_config_keeps_the_exit_contract(tmp_path_factory, mutation):
    claim, config = mutation
    # a fresh file per example: truncating one in place can wait for a
    # flush of the old contents, tens of ms a write on some file systems
    path = tmp_path_factory.mktemp("mutation") / "mutated.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["experiment", "--name", claim, "--config", str(path)])
    lines = err.getvalue().splitlines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert code in (0, 1, 2)
    assert (code == 1) == bool(fails)
    if code == 2:
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert json.loads(out.getvalue())["verdicts"][0]["claim"] == claim
