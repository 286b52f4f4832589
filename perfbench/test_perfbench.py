"""Self-tests of the benchmark: a corrupted expectation fails the run.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import catalogue  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_catalogue_expectation_fails_the_run(monkeypatch, capsys):
    real = catalogue.reference_verdicts

    def corrupted(ops):
        verdicts = real(ops)
        return ("c" if verdicts[0] != "c" else "n") + verdicts[1:]

    monkeypatch.setattr(catalogue, "reference_verdicts", corrupted)
    code = run.main(["--workload", "catalogue-static", "--seed", "3",
                     "--seconds", "0.1"])
    result = result_line(capsys)
    assert code == 1
    assert result["correct"] is False
    # One mismatching pair in each of the minimum number of samples.
    assert result["failed"] == catalogue.MIN_SAMPLES


def test_corrupted_service_expectation_fails_the_run(monkeypatch, capsys):
    real = service.expected_verdicts

    def corrupted(pairs):
        verdicts = real(pairs)
        verdicts[0] = "conflict" if verdicts[0] != "conflict" else "no-conflict"
        return verdicts

    monkeypatch.setattr(service, "expected_verdicts", corrupted)
    code = run.main(["--workload", "service-check", "--seed", "3",
                     "--seconds", "0.5"])
    result = result_line(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_uncorrupted_service_run_passes(capsys):
    code = run.main(["--workload", "service-check", "--seed", "3",
                     "--seconds", "0.5"])
    result = result_line(capsys)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.common.END_TO_END}
