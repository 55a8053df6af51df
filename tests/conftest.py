"""Session fixtures: the shared corpus analysis and acceptance reporting.

The full default corpus is analyzed exactly once per session; several
acceptance criteria share that run (its wall time is itself one of the
criteria).  Each acceptance test records a one-line verdict that gets
printed in a dedicated section at the end of the run.
"""

import time
from types import SimpleNamespace

import pytest

from matroidlc import (
    CorpusConfig,
    corpus_instances,
    independence_polynomial,
    mason_report,
    spectral_nd_report,
)


def pytest_configure(config):
    config._acceptance_lines = {}


@pytest.fixture
def acceptance(request):
    """Recorder for per-criterion pass/fail lines."""

    def record(criterion: int, passed: bool, detail: str):
        request.config._acceptance_lines[criterion] = (passed, detail)
        assert passed, f"criterion {criterion}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", {})
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(lines):
        passed, detail = lines[k]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[criterion {k}] {status} - {detail}")


@pytest.fixture(scope="session")
def corpus_analysis():
    """One full-corpus verification run, shared across criteria.

    Produces (id, matroid, generating polynomial, mason report,
    spectral report) per instance plus the elapsed wall time of the
    whole sweep.
    """
    config = CorpusConfig()
    start = time.perf_counter()
    rows = []
    for iid, m in corpus_instances(config):
        report = mason_report(m)
        # the same spectral call as analyze_instance; g_M only for the
        # criteria that read the polynomial itself
        spectral = spectral_nd_report(m)
        g = independence_polynomial(m)
        rows.append(SimpleNamespace(id=iid, matroid=m, poly=g, report=report, spectral=spectral))
    elapsed = time.perf_counter() - start
    return SimpleNamespace(config=config, rows=rows, elapsed=elapsed)
