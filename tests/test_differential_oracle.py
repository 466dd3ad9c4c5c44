"""Replay and live runs over the same scores give the same trajectories.

``raghpo grid`` evaluates every configuration of a small space against the
stub service; ``raghpo optimize`` then runs each algorithm twice, once
replaying that table and once live against the same stub. Generation is
greedy and the stub deterministic, so both backends see the same scores and
costs, and every trial row must agree.

``greedy_rcc`` differs by design: a replayed retrieval probe gets its
objective score for free, a live one does not, so a later objective sweep
that meets a probed candidate can commit differently. Its runs must agree
on the leading retrieval-driven trials, and every score either run records
must be the table's score of that configuration.

Both backends sum each mean over the qids in the same order, so a dataset
whose questions are not in qid order gives the same scores too.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from raghpo.cli import EXIT_OK, main
from raghpo.dataio import load_grid, store_dataset
from raghpo.evaluator import GridReplayEvaluator, Objective, RETRIEVAL_OBJECTIVE
from raghpo.harness import load_run
from raghpo.pipeline import PromptTemplate, TemplateStore

OBJECTIVE = "lexical_ac,faithfulness"
BUDGET = 12
SEEDS = "1,2,3"
AGREEING_FIELDS = (
    "ordinal",
    "objective_score",
    "best_dev",
    "best_ordinal",
    "test_of_best",
    "cum_embedded_tokens",
    "cum_generation_input_tokens",
    "cum_generation_output_tokens",
)


@pytest.fixture()
def build_oracle(tmp_path, stub_service, tiny_space, monkeypatch):
    """Write a dataset, a live run config for it and the grid table ``raghpo grid`` builds."""
    monkeypatch.setattr(
        TemplateStore,
        "builtin",
        classmethod(
            lambda cls: cls(
                {
                    "gen-a": PromptTemplate(body="Q: {question}\n{retrieved documents}\nA:"),
                    "gen-b": PromptTemplate(
                        body="{retrieved documents}\nanswer: {question}", chunk_prefix="> "
                    ),
                }
            )
        ),
    )

    def build(dataset):
        store_dataset(dataset, tmp_path / "dataset")
        (tmp_path / "space.json").write_text(json.dumps(tiny_space.to_dict()))
        config = tmp_path / "live.json"
        config.write_text(
            json.dumps(
                {
                    "dataset": str(tmp_path / "dataset"),
                    "space": str(tmp_path / "space.json"),
                    "endpoints": {
                        "embed": {"base_url": stub_service.base_url},
                        "generate": {"base_url": stub_service.base_url},
                    },
                }
            )
        )
        grid = tmp_path / "grid.jsonl"
        argv = ["grid", "--config", str(config), "--metrics", "lexical_ac,faithfulness,context_mrr"]
        assert main(argv + ["--out", str(grid)]) == EXIT_OK
        return config, grid

    return build


@pytest.fixture()
def oracle(build_oracle, tiny_dataset):
    """Paths of a live run config and of the full grid table ``raghpo grid`` built with it."""
    return build_oracle(tiny_dataset)


def _trial_rows(tmp_path, name: str, backend: list[str], algorithm: str) -> list[dict]:
    out = tmp_path / f"{name}_{algorithm}.jsonl"
    argv = ["optimize", *backend, "--algo", algorithm, "--budget", str(BUDGET)]
    assert main(argv + ["--seeds", SEEDS, "--objective", OBJECTIVE, "--out", str(out)]) == EXIT_OK
    assert len(load_run(out).seed_runs) == 3
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    return [row for row in rows if row["kind"] == "trial"]


@pytest.mark.parametrize("algorithm", ["random", "tpe", "greedy_m", "greedy_r", "greedy_rcc"])
def test_replay_and_live_runs_agree(oracle, tmp_path, tiny_space, algorithm):
    _assert_runs_agree(oracle, tmp_path, tiny_space, algorithm)


@pytest.mark.parametrize("algorithm", ["random", "tpe", "greedy_m", "greedy_r"])
def test_replay_and_live_runs_agree_on_unsorted_qids(
    build_oracle, tiny_dataset, tmp_path, tiny_space, algorithm
):
    # The stub's dev scores sum to different last bits in dataset order and
    # in qid order, so a backend that sums in dataset order disagrees.
    names = ("q3", "q1", "q0", "q2")
    dev = tuple(dataclasses.replace(qa, qid=name) for qa, name in zip(tiny_dataset.dev, names))
    dataset = dataclasses.replace(tiny_dataset, dev=dev)
    _assert_runs_agree(build_oracle(dataset), tmp_path, tiny_space, algorithm)


def _assert_runs_agree(oracle, tmp_path, tiny_space, algorithm: str) -> None:
    config, grid = oracle
    space = ["--space", str(tmp_path / "space.json")]
    replayed = _trial_rows(tmp_path, "replay", ["--grid", str(grid), *space], algorithm)
    live = _trial_rows(tmp_path, "live", ["--config", str(config)], algorithm)
    assert len(replayed) == len(live) == 3 * BUDGET

    table = GridReplayEvaluator(load_grid(grid, tiny_space))
    objective = Objective(metrics=tuple(OBJECTIVE.split(",")))
    for row in replayed + live:
        cell = tiny_space.config_at(row["ordinal"])
        if row["objective_score"] is not None:
            assert row["objective_score"] == table.replay_objective(cell, "dev", objective)
        if row["retrieval_score"] is not None:
            assert row["retrieval_score"] == table.replay_objective(cell, "dev", RETRIEVAL_OBJECTIVE)

    if algorithm == "greedy_rcc":
        assert [r["driver"] for r in replayed] == [r["driver"] for r in live]
        pairs = [(r, l) for r, l in zip(replayed, live) if r["driver"] == "context_mrr"]
        assert {r["seed"] for r, _ in pairs} == {1, 2, 3}
        fields = ("ordinal", "retrieval_score", *AGREEING_FIELDS[-3:])
    else:
        pairs, fields = list(zip(replayed, live)), AGREEING_FIELDS
    for replay_row, live_row in pairs:
        assert (replay_row["seed"], replay_row["iteration"]) == (live_row["seed"], live_row["iteration"])
        for field in fields:
            assert replay_row[field] == live_row[field], (field, replay_row, live_row)
