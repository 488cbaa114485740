"""Smoke tests for the scripts under ``scripts/``: each runs in its own
interpreter and exits 0.  The survey prints one line whose value is
known; the centraliser walkthrough is pinned whole."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["survey_links.py", "--max-t", "5"], "2v\t5\t85\t0\t5\tTrue\tTrue"),
        # t = 6 is the first with case-i vertices, so h-links get built
        (["survey_links.py", "--max-t", "6"], "2v\t6\t375\t30\t15\tTrue\tTrue"),
        # the descending-link table: H_1 of the 2v link vanishes at t = 7
        (["survey_links.py", "--max-t", "7"],
         "2v\t7\t{0: 1547, 1: 17220, 2: 36120, 3: 20160}\t{0: 0, 1: 0, 2: 496, 3: 210}"),
    ],
    ids=["survey_links", "survey_links_case_i", "survey_links_t7"],
)
def test_script_runs(argv, line):
    assert line in _run(argv).splitlines()


def test_centralizer_demo_output():
    # every line, the printed decompositions of kernel samples included
    expected = pathlib.Path(__file__).with_name("centralizer_demo.out").read_text()
    assert _run(["centralizer_demo.py"]) == expected


def _run(argv) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
