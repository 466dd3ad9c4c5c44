"""The five configuration-search algorithms behind one iterative contract.

Each optimizer is a sequential state machine: ``suggest(history)`` proposes
an unexplored configuration, the caller evaluates it and appends a
:class:`Trial`, and the cycle repeats. An optimizer is deterministic given
its seed, the search space and the histories it is shown, so the harness
resumes a run by running it again from the seed, and gets the same
trajectory. ``state_dict()`` snapshots the state between suggestions, and
``load_state_dict`` restores it.

Algorithms:

* ``random`` -- uniform draws over unexplored configurations.
* ``tpe`` -- after a handful of uniform warm-up draws, splits past trials
  into good/bad sets at a quantile, fits smoothed categorical densities per
  parameter, and picks the candidate with the highest good/bad density ratio.
* ``greedy_m`` / ``greedy_r`` -- coordinate descent over a fixed parameter
  ordering (models first vs. retrieval first): sweep every value of the
  current parameter with earlier parameters fixed and one shared random
  suffix for the later ones, commit the best value, move on.
* ``greedy_rcc`` -- retrieval-first ordering where the sweeps for the three
  index parameters are scored by retrieval quality alone, deferring all
  generation spend until the retrieval side is fixed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .costs import CostDelta, ZERO_COST
from .rules import Choice, Interval
from .searchspace import ORDINAL_ORDER, ParamName, RagConfig, SearchSpace

ALGORITHMS = ("random", "tpe", "greedy_m", "greedy_r", "greedy_rcc")
MAX_CANDIDATES = 1_000  # the most TPE candidates, each drawn per parameter on every suggestion

#: The value rules of a run's algorithm and of the optimizers' options.
ALGORITHM_RULE = Choice(ALGORITHMS)
GAMMA_RULE = Interval(0, 1, "()")
CANDIDATES_RULE = Interval(1, MAX_CANDIDATES)
INIT_RULE = Interval(0)
SUFFIX_MODE_RULE = Choice(("shared", "per_candidate"))

#: Which score drove a trial: the run objective, or retrieval quality.
DRIVER_OBJECTIVE = "objective"
DRIVER_RETRIEVAL = "context_mrr"

GREEDY_ORDERINGS: dict[str, tuple[ParamName, ...]] = {
    # Models first: generative and embedding model are presumed highest impact.
    "greedy_m": (
        ParamName.GENERATIVE_MODEL,
        ParamName.EMBEDDING_MODEL,
        ParamName.CHUNK_SIZE,
        ParamName.CHUNK_OVERLAP,
        ParamName.TOP_K,
    ),
    # Pipeline order: retrieval side first (model first within it), then generation.
    "greedy_r": (
        ParamName.EMBEDDING_MODEL,
        ParamName.CHUNK_SIZE,
        ParamName.CHUNK_OVERLAP,
        ParamName.GENERATIVE_MODEL,
        ParamName.TOP_K,
    ),
}
GREEDY_ORDERINGS["greedy_rcc"] = GREEDY_ORDERINGS["greedy_r"]

#: Parameters whose sweeps are scored retrieval-only under greedy_rcc.
RCC_RETRIEVAL_PARAMS = frozenset(
    {ParamName.EMBEDDING_MODEL, ParamName.CHUNK_SIZE, ParamName.CHUNK_OVERLAP}
)


class SpaceExhaustedError(RuntimeError):
    """Every configuration has been explored; nothing left to suggest."""


@dataclass(frozen=True)
class Trial:
    """One evaluated configuration in a run."""

    iteration: int
    config: RagConfig
    objective_score: float | None
    retrieval_score: float | None = None
    cost: CostDelta = ZERO_COST
    driver: str = DRIVER_OBJECTIVE


class TrialHistory:
    """Ordered, duplicate-free record of evaluated configurations."""

    def __init__(self, trials: Sequence[Trial] = ()):
        self._trials: list[Trial] = []
        self._configs: set[RagConfig] = set()
        for trial in trials:
            self.append(trial)

    def append(self, trial: Trial) -> None:
        if trial.iteration != len(self._trials) + 1:
            raise ValueError(
                f"iterations must be consecutive from 1; got {trial.iteration} "
                f"after {len(self._trials)} trials"
            )
        if trial.config in self._configs:
            raise ValueError(f"duplicate config at iteration {trial.iteration}")
        self._trials.append(trial)
        self._configs.add(trial.config)

    def __len__(self) -> int:
        return len(self._trials)

    def __iter__(self) -> Iterator[Trial]:
        return iter(self._trials)

    def __getitem__(self, i: int) -> Trial:
        return self._trials[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, TrialHistory) and self._trials == other._trials


@dataclass(frozen=True)
class Suggestion:
    """A proposed configuration plus the evaluation mode it expects."""

    config: RagConfig
    retrieval_only: bool = False


def _encode_rng(rng: random.Random) -> list:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _decode_rng(state: list) -> tuple:
    return (state[0], tuple(state[1]), state[2])


class Optimizer:
    """Shared plumbing: seeded RNG, unexplored-set helpers, state snapshots.

    Internally a configuration is its ordinal in ``space``; a
    :class:`RagConfig` is looked up only for the suggestion returned.
    """

    algorithm = ""

    def __init__(self, space: SearchSpace, seed: int):
        self.space = space
        self.seed = seed
        self._rng = random.Random(seed)
        self._reset_view()

    def suggest(self, history: TrialHistory) -> Suggestion:
        raise NotImplementedError

    # -- serialization -----------------------------------------------------

    def state_dict(self) -> dict:
        state = {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "rng_state": _encode_rng(self._rng),
        }
        state.update(self._extra_state())
        return state

    def load_state_dict(self, state: dict) -> None:
        if state.get("algorithm") != self.algorithm:
            raise ValueError(
                f"state is for algorithm {state.get('algorithm')!r}, not {self.algorithm!r}"
            )
        self._rng.setstate(_decode_rng(state["rng_state"]))
        self._load_extra_state(state)
        self._reset_view()

    def _extra_state(self) -> dict:
        return {}

    def _load_extra_state(self, state: dict) -> None:
        pass

    # -- helpers ------------------------------------------------------------

    # An optimizer keeps an incremental view of the history it is shown. It
    # is a sequential state machine, so that history only grows; when it does
    # not, _explored_trials rebuilds the view from the whole history.

    def _reset_view(self) -> None:
        self._seen_last: Trial | None = None
        self._explored: dict[int, Trial] = {}  # ordinal -> trial
        self._unexplored: list[int] = list(range(self.space.total_size))  # sorted

    def _observe(self, ordinal: int, trial: Trial) -> None:
        """Add one trial, the next of the history, to the view."""
        self._explored[ordinal] = trial
        del self._unexplored[bisect_left(self._unexplored, ordinal)]

    def _explored_trials(self, history: TrialHistory) -> dict[int, Trial]:
        n = len(history)
        seen = len(self._explored)  # the history holds no duplicates
        if seen > n or (seen > 0 and history[seen - 1] is not self._seen_last):
            seen = 0
            self._reset_view()
        for i in range(seen, n):
            self._observe(self.space.ordinal_of(history[i].config), history[i])
        self._seen_last = history[n - 1] if n else None
        return self._explored

    def _uniform_unexplored(self, history: TrialHistory) -> RagConfig:
        self._explored_trials(history)
        pool = self._unexplored
        if not pool:
            raise SpaceExhaustedError("all configurations have been explored")
        return self.space.config_at(pool[self._rng.randrange(len(pool))])

    def _check_not_exhausted(self, history: TrialHistory) -> None:
        if len(history) >= self.space.total_size:
            raise SpaceExhaustedError("all configurations have been explored")


class RandomOptimizer(Optimizer):
    """Uniform draws over unexplored configurations, ignoring past scores."""

    algorithm = "random"

    def suggest(self, history: TrialHistory) -> Suggestion:
        self._check_not_exhausted(history)
        return Suggestion(self._uniform_unexplored(history))


class TpeOptimizer(Optimizer):
    """Density-ratio search over the categorical space.

    The first ``n_init`` suggestions are uniform. Afterwards the scored
    trials are split at the ``gamma`` quantile into good and bad sets (ties
    resolved toward earlier trials), per-parameter categorical densities are
    fit with add-one smoothing over the full value list, ``n_candidates``
    configurations are drawn from the good density, and the unexplored
    candidate maximizing the good/bad likelihood ratio is suggested. All
    constants are overridable, within their rules.
    """

    algorithm = "tpe"

    def __init__(
        self,
        space: SearchSpace,
        seed: int,
        gamma: float = 0.25,
        n_candidates: int = 24,
        n_init: int = 5,
    ):
        super().__init__(space, seed)
        GAMMA_RULE.check(gamma, "gamma")
        CANDIDATES_RULE.check(n_candidates, "n_candidates")
        INIT_RULE.check(n_init, "n_init")
        self.gamma = gamma
        self.n_candidates = n_candidates
        self.n_init = n_init

    def _reset_view(self) -> None:
        super()._reset_view()
        # Scored trials best first, as (-score, iteration, value indices):
        # ties go to the earlier trial. Per parameter and value index, the
        # count among all of them and among the good prefix ranked[:_n_good].
        self._ranked: list[tuple[float, int, tuple[int, ...]]] = []
        self._total_counts = [[0] * n for n in self.space.sizes]
        self._good_counts = [[0] * n for n in self.space.sizes]
        self._n_good = 0

    def _observe(self, ordinal: int, trial: Trial) -> None:
        super()._observe(ordinal, trial)
        if trial.objective_score is None:
            return
        digits = self.space.digits_at(ordinal)
        entry = (-trial.objective_score, trial.iteration, digits)
        rank = bisect_right(self._ranked, entry)
        self._ranked.insert(rank, entry)
        _count(self._total_counts, digits, 1)
        if rank < self._n_good:
            # It joins the good prefix and pushes the prefix's last trial out.
            _count(self._good_counts, digits, 1)
            _count(self._good_counts, self._ranked[self._n_good][2], -1)

    def _grow_good(self, n_good: int) -> None:
        """Make the good counts those of ``ranked[:n_good]``.

        ``n_good`` never falls while a view lives: it grows with the number
        of scored trials, and ``load_state_dict`` (which may change gamma)
        resets the view.
        """
        while self._n_good < n_good:
            _count(self._good_counts, self._ranked[self._n_good][2], 1)
            self._n_good += 1

    def suggest(self, history: TrialHistory) -> Suggestion:
        self._check_not_exhausted(history)
        explored = self._explored_trials(history)
        n_scored = len(self._ranked)
        if len(history) < self.n_init or n_scored < 2:
            return Suggestion(self._uniform_unexplored(history))

        n_good = max(1, math.ceil(self.gamma * n_scored))
        if n_good == n_scored:  # no bad trials
            return Suggestion(self._uniform_unexplored(history))
        self._grow_good(n_good)

        # Per parameter: one draw of n_candidates value indices from the good
        # density, plus the per-value log ratio for scoring candidates. Both
        # densities are add-one smoothed over the full value list.
        draws: list[list[int]] = []
        log_ratio: list[list[float]] = []
        for n, good, total in zip(self.space.sizes, self._good_counts, self._total_counts):
            l = self._smoothed(good)
            g = self._smoothed([t - c for t, c in zip(total, good)])
            draws.append(self._rng.choices(range(n), weights=l, k=self.n_candidates))
            log_ratio.append([math.log(li) - math.log(gi) for li, gi in zip(l, g)])

        # Each candidate's log ratio, summed over parameters in ORDINAL_ORDER:
        # float addition is not associative, and ties between ratios matter.
        ratios = [0] * self.n_candidates
        for per_value, column in zip(log_ratio, draws):
            ratios = [ratio + per_value[digit] for ratio, digit in zip(ratios, column)]
        best: tuple[float, int] | None = None
        for ordinal, ratio in zip(self.space.ordinals_at(draws), ratios):
            if ordinal not in explored and (best is None or ratio > best[0]):
                best = (ratio, ordinal)
        if best is None:
            return Suggestion(self._uniform_unexplored(history))
        return Suggestion(self.space.config_at(best[1]))

    @staticmethod
    def _smoothed(counts: list[int]) -> list[float]:
        """Add-one smoothed density over a value list, from per-value counts."""
        total = sum(counts) + len(counts)
        return [(c + 1) / total for c in counts]

    def _extra_state(self) -> dict:
        return {"gamma": self.gamma, "n_candidates": self.n_candidates, "n_init": self.n_init}

    def _load_extra_state(self, state: dict) -> None:
        self.gamma = state.get("gamma", self.gamma)
        self.n_candidates = state.get("n_candidates", self.n_candidates)
        self.n_init = state.get("n_init", self.n_init)


def _count(counts: list[list[int]], digits: tuple[int, ...], delta: int) -> None:
    for per_value, digit in zip(counts, digits):
        per_value[digit] += delta


@dataclass
class _Sweep:
    param: ParamName
    # One candidate ordinal per value of ``param``, in the space's value order.
    candidates: list[int]
    driver: str


class GreedyOptimizer(Optimizer):
    """Coordinate descent over a fixed parameter ordering.

    Within a sweep every candidate shares identical values for all
    parameters except the swept one: earlier parameters are pinned to their
    committed values, later ones to a single random suffix drawn once per
    sweep (``suffix_mode="per_candidate"`` draws a fresh suffix per
    candidate instead). Sweep candidates that already appear in the history
    are not re-suggested; their recorded scores feed the commit decision.
    The best value (ties to the first in the value list) is committed and
    the next parameter swept; once every parameter is committed, remaining
    budget falls back to uniform random suggestions.
    """

    def __init__(
        self,
        space: SearchSpace,
        seed: int,
        algorithm: str,
        suffix_mode: str = "shared",
    ):
        if algorithm not in GREEDY_ORDERINGS:
            raise ValueError(f"unknown greedy variant {algorithm!r}")
        SUFFIX_MODE_RULE.check(suffix_mode, "suffix_mode")
        super().__init__(space, seed)
        self.algorithm = algorithm
        self.ordering = GREEDY_ORDERINGS[algorithm]
        self.suffix_mode = suffix_mode
        self._param_idx = 0
        self._committed: dict[ParamName, object] = {}
        self._sweep: _Sweep | None = None

    def _sweep_driver(self, param: ParamName) -> str:
        if self.algorithm == "greedy_rcc" and param in RCC_RETRIEVAL_PARAMS:
            return DRIVER_RETRIEVAL
        return DRIVER_OBJECTIVE

    def _draw_suffix(self, following: Sequence[ParamName]) -> dict[ParamName, int]:
        # randrange(n) consumes the RNG exactly as choice() of an n-value list.
        return {q: self._rng.randrange(len(self.space.values_of(q))) for q in following}

    def _start_sweep(self) -> _Sweep:
        param = self.ordering[self._param_idx]
        following = self.ordering[self._param_idx + 1 :]
        shared_suffix = self._draw_suffix(following) if self.suffix_mode == "shared" else None
        fixed = {p: self.space.values_of(p).index(v) for p, v in self._committed.items()}
        rows = []
        for digit in range(len(self.space.values_of(param))):
            suffix = shared_suffix if shared_suffix is not None else self._draw_suffix(following)
            digits = {**fixed, param: digit, **suffix}
            rows.append([digits[p] for p in ORDINAL_ORDER])
        candidates = self.space.ordinals_at(list(zip(*rows)))
        return _Sweep(param=param, candidates=candidates, driver=self._sweep_driver(param))

    def _commit(self, sweep: _Sweep, explored: dict[int, Trial]) -> None:
        values = self.space.values_of(sweep.param)
        best_value = None
        best_score = None
        for value, ordinal in zip(values, sweep.candidates):
            trial = explored[ordinal]
            score = (
                trial.retrieval_score
                if sweep.driver == DRIVER_RETRIEVAL
                else trial.objective_score
            )
            if score is None:
                # The candidate was explored in a different evaluation mode
                # and lacks the score this sweep compares on. Leave it out.
                continue
            if best_score is None or score > best_score:
                best_score = score
                best_value = value
        if best_value is None:
            # No comparable scores at all; keep the first value for progress.
            best_value = values[0]
        self._committed[sweep.param] = best_value
        self._param_idx += 1
        self._sweep = None

    def suggest(self, history: TrialHistory) -> Suggestion:
        self._check_not_exhausted(history)
        explored = self._explored_trials(history)
        while self._param_idx < len(self.ordering):
            if self._sweep is None:
                self._sweep = self._start_sweep()
            for ordinal in self._sweep.candidates:
                if ordinal not in explored:
                    return Suggestion(
                        self.space.config_at(ordinal),
                        retrieval_only=self._sweep.driver == DRIVER_RETRIEVAL,
                    )
            self._commit(self._sweep, explored)
        return Suggestion(self._uniform_unexplored(history))

    # -- serialization -----------------------------------------------------

    def _extra_state(self) -> dict:
        return {
            "suffix_mode": self.suffix_mode,
            "param_idx": self._param_idx,
            "committed": {p.value: v for p, v in self._committed.items()},
            "sweep": None
            if self._sweep is None
            else {
                "param": self._sweep.param.value,
                "candidates": list(self._sweep.candidates),
                "driver": self._sweep.driver,
            },
        }

    def _load_extra_state(self, state: dict) -> None:
        self.suffix_mode = state.get("suffix_mode", self.suffix_mode)
        self._param_idx = state["param_idx"]
        self._committed = {ParamName(p): v for p, v in state["committed"].items()}
        sweep = state.get("sweep")
        self._sweep = None
        if sweep is not None:
            candidates = list(sweep["candidates"])
            if not all(isinstance(i, int) and 0 <= i < self.space.total_size for i in candidates):
                raise ValueError(f"sweep candidates {candidates} are not ordinals of this space")
            self._sweep = _Sweep(ParamName(sweep["param"]), candidates, sweep["driver"])


def create_optimizer(
    algorithm: str,
    space: SearchSpace,
    seed: int,
    *,
    tpe_gamma: float = 0.25,
    tpe_candidates: int = 24,
    tpe_init: int = 5,
    greedy_suffix_mode: str = "shared",
) -> Optimizer:
    """Instantiate one of the five algorithms by id."""
    ALGORITHM_RULE.check(algorithm, "algorithm")
    if algorithm == "random":
        return RandomOptimizer(space, seed)
    if algorithm == "tpe":
        return TpeOptimizer(
            space, seed, gamma=tpe_gamma, n_candidates=tpe_candidates, n_init=tpe_init
        )
    return GreedyOptimizer(space, seed, algorithm, suffix_mode=greedy_suffix_mode)

