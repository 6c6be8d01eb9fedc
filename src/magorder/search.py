"""Order-search strategies over the elimination problem.

The cost of an elimination order is the edge count of the skeleton it
learns, i.e. the sum of per-step neighbor counts.  Three searchers take
one neighbor finder: greedy hill climbing over bounded-distance
transpositions, through the finder's per-vertex memo; exact dynamic
programming over remaining-vertex subsets, through its memo-free
``sweep``; and REINFORCE on a softmax policy that eliminates one vertex
per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ci import markov_boundaries
from .discovery import cost_vector, learn_skeleton
from .errors import CapacityError
from .graph import bits

INITIALIZERS = ("random", "mb_size_sort", "mb_recursive")


# One settings class per searcher: its fields are the searcher's only
# keys, types and defaults, in the library and in the harness alike.
@dataclass(frozen=True)
class HcConfig:
    max_iter: int = 20
    max_swap: int = 10
    initializer: str = "mb_size_sort"

    def __post_init__(self):
        for name in ("max_iter", "max_swap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.initializer not in INITIALIZERS:
            raise ValueError(f"unknown initializer {self.initializer!r}")


@dataclass(frozen=True)
class ViConfig:
    cap: int = 20

    def __post_init__(self):
        # Two lists and two int64 tables take about 32 B per state, so
        # 2^24 states already need about 0.5 GB.
        if not 1 <= self.cap <= 24:
            raise ValueError("cap must lie in [1, 24]")


@dataclass(frozen=True)
class PgConfig:
    episodes: int = 500
    learning_rate: float = 0.5
    batch_size: int = 10
    num_buckets: int = 4
    temperature: float = 1.0

    def __post_init__(self):
        for name in ("episodes", "batch_size", "num_buckets"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")


@dataclass(frozen=True)
class HcResult:
    """Final order, the skeleton it learns, and the accepted-swap trace.

    ``trace`` rows are (iteration, total cost after it, swap positions or
    None); row 0 records the initial order's cost.
    """
    order: tuple
    skeleton: object
    trace: tuple


def initialize_order(finder, mode, *, seed=None):
    """Starting order for local search over ``finder``'s variables.

    random: uniform permutation drawn from ``seed``.  mb_size_sort:
    ascending Markov-boundary size, ties by vertex index.  mb_recursive:
    repeatedly pick the vertex with the smallest boundary inside the
    remaining set whose boundary is contained (minus the member itself)
    in each member's boundary — the signature of a removable vertex —
    recomputing boundaries after every pick, and falling back to the
    plain minimal-size pick when no vertex qualifies.
    """
    n = finder.n
    if mode == "random":
        rng = np.random.default_rng(seed)
        return tuple(int(v) for v in rng.permutation(n))
    if mode == "mb_size_sort":
        mb = finder.boundaries
        return tuple(sorted(range(n),
                            key=lambda v: (mb[v].bit_count(), v)))
    if mode == "mb_recursive":
        out = []
        remaining = (1 << n) - 1
        while remaining.bit_count() > 1:
            mb = markov_boundaries(finder.tester, remaining)
            ranked = sorted(bits(remaining),
                            key=lambda v: (mb[v].bit_count(), v))
            pick = next(
                (v for v in ranked
                 if all(mb[v] & ~(1 << y) & ~mb[y] == 0
                        for y in bits(mb[v]))),
                ranked[0])
            out.append(pick)
            remaining &= ~(1 << pick)
        out.extend(bits(remaining))
        return tuple(out)
    raise ValueError(f"unknown initializer {mode!r}")


def hill_climb(finder, config=None, *, seed=None, initial_order=None):
    """Greedy first-improvement search over bounded transpositions.

    Scans position pairs (a, b), ascending a then b, with
    1 <= b - a <= max_swap and b < n; a swap is accepted as soon as the cost
    restricted to positions [a, b] strictly decreases (entries outside
    the window are unaffected by the swap), and the scan restarts.
    Stops after max_iter accepted swaps or one full scan without
    improvement.  ``seed`` drives the random initializer.
    """
    cfg = config if config is not None else HcConfig()
    n = finder.n
    if initial_order is not None:
        order = list(initial_order)
        if sorted(order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: "
                             f"{initial_order!r}")
    else:
        order = list(initialize_order(finder, cfg.initializer, seed=seed))
    costs = cost_vector(order, finder)
    trace = [(0, sum(costs), None)]
    for iteration in range(1, cfg.max_iter + 1):
        accepted = None
        for a in range(n - 1):
            for b in range(a + 1, min(a + cfg.max_swap, n - 1) + 1):
                cand = order.copy()
                cand[a], cand[b] = cand[b], cand[a]
                window = cost_vector(cand, finder, first=a, last=b)
                if sum(window[a:b + 1]) < sum(costs[a:b + 1]):
                    order = cand
                    costs[a:b + 1] = window[a:b + 1]
                    accepted = (a, b)
                    break
            if accepted is not None:
                break
        if accepted is None:
            break
        trace.append((iteration, sum(costs), accepted))
    skeleton = learn_skeleton(tuple(order), finder)
    return HcResult(tuple(order), skeleton, tuple(trace))


@dataclass(frozen=True)
class ViResult:
    """Optimal order with the full cost-to-go table.

    ``values[s]`` is the optimal remaining cost from remaining-set s;
    ``actions[s]`` the first vertex an optimal policy eliminates there
    (-1 where no action is needed).
    """
    order: tuple
    total_cost: int
    values: np.ndarray
    actions: np.ndarray


def value_iteration(finder, config=None):
    """Exact minimum-cost order via dynamic programming over subsets.

    value(s) = min over a in s of |neighbors(a, s)| + value(s without a),
    with singleton and empty states free.  Ties go to the smallest
    vertex index, so the unrolled order is deterministic.
    """
    cap = (config if config is not None else ViConfig()).cap
    n = finder.n
    if n > cap:
        raise CapacityError(f"n={n} exceeds the subset-table cap {cap}")
    size = 1 << n
    values = [0] * size
    actions = [-1] * size
    for s, masks in finder.sweep():
        best, best_a = None, -1
        for a, mask in zip(bits(s), masks):
            cost = mask.bit_count() + values[s & ~(1 << a)]
            if best is None or cost < best:
                best, best_a = cost, a
        values[s] = best
        actions[s] = best_a
    order = []
    s = size - 1
    while s.bit_count() > 1:
        a = actions[s]
        order.append(a)
        s &= ~(1 << a)
    order.extend(bits(s))
    return ViResult(tuple(order), values[size - 1],
                    np.array(values, dtype=np.int64),
                    np.array(actions, dtype=np.int64))


class SoftmaxPolicy:
    """Stochastic elimination policy with tabular logits.

    The logit of eliminating v at step t from remaining set s is
    theta[v, bucket(t)] + phi[v] * |s| / n, all over the temperature;
    eliminated vertices get zero probability.
    """

    def __init__(self, n, num_buckets=PgConfig.num_buckets,
                 temperature=PgConfig.temperature):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self.num_buckets = max(1, min(num_buckets, n - 1 or 1))
        self.temperature = temperature
        self.theta = np.zeros((n, self.num_buckets))
        self.phi = np.zeros(n)

    def bucket(self, t):
        steps = max(self.n - 1, 1)
        return min(self.num_buckets - 1,
                   t * self.num_buckets // steps)

    def probs(self, remaining, t):
        """(member list, probability vector) over the remaining set."""
        members = list(bits(remaining))
        f = remaining.bit_count() / self.n
        k = self.bucket(t)
        logits = np.array([self.theta[v, k] + self.phi[v] * f
                           for v in members]) / self.temperature
        logits -= logits.max()
        w = np.exp(logits)
        return members, w / w.sum()

    def flat(self):
        return np.concatenate([self.theta.ravel(), self.phi])

    def set_flat(self, vec):
        k = self.theta.size
        self.theta = np.asarray(vec[:k], dtype=float).reshape(
            self.theta.shape)
        self.phi = np.asarray(vec[k:], dtype=float).copy()


def _sample_episode(policy, finder, rng):
    """One trajectory: (steps, total reward); steps are
    (remaining, t, member index chosen, per-step reward)."""
    n = policy.n
    remaining = (1 << n) - 1
    steps = []
    total = 0
    for t in range(n - 1):
        members, p = policy.probs(remaining, t)
        idx = int(rng.choice(len(members), p=p))
        a = members[idx]
        reward = -finder.neighbor_mask(a, remaining).bit_count()
        steps.append((remaining, t, idx, reward))
        total += reward
        remaining &= ~(1 << a)
    return steps, total


def _log_prob_grad(policy, remaining, t, idx):
    """Gradient of log pi(a | s, t) in flat parameter layout."""
    members, p = policy.probs(remaining, t)
    k = policy.bucket(t)
    f = remaining.bit_count() / policy.n
    grad = np.zeros(policy.theta.size + policy.n)
    cols = policy.num_buckets
    for j, v in enumerate(members):
        ind = 1.0 if j == idx else 0.0
        w = (ind - p[j]) / policy.temperature
        grad[v * cols + k] += w
        grad[policy.theta.size + v] += w * f
    return grad


@dataclass(frozen=True)
class PgResult:
    order: tuple
    best_cost: int
    rewards: tuple
    policy: SoftmaxPolicy


def policy_gradient(finder, config=None, *, seed=0):
    """REINFORCE over elimination orders with a linear baseline.

    Runs ``episodes`` sampled eliminations in batches; after each batch,
    a least-squares baseline linear in (1, |s|/n) is fitted to the
    returns-to-go and the policy takes one likelihood-ratio gradient
    step on the advantages.  Returns the best order observed and the
    per-episode total-reward curve.
    """
    cfg = config if config is not None else PgConfig()
    n = finder.n
    policy = SoftmaxPolicy(n, cfg.num_buckets, cfg.temperature)
    rng = np.random.default_rng(seed)
    rewards = []
    best_order, best_cost = None, None
    done = 0
    while done < cfg.episodes:
        batch = min(cfg.batch_size, cfg.episodes - done)
        batch_steps = []
        feats, gains = [], []
        for _ in range(batch):
            steps, total = _sample_episode(policy, finder, rng)
            rewards.append(total)
            order = _order_of(steps, n)
            if best_cost is None or -total < best_cost:
                best_cost, best_order = -total, order
            to_go = 0
            tail = []
            for remaining, t, idx, reward in reversed(steps):
                to_go += reward
                tail.append((remaining, t, idx, to_go))
                feats.append((1.0, remaining.bit_count() / n))
                gains.append(to_go)
            batch_steps.extend(reversed(tail))
        done += batch
        if not feats:
            continue  # n == 1: episodes have no steps to learn from
        x = np.asarray(feats)
        g = np.asarray(gains)
        coef, *_ = np.linalg.lstsq(x, g, rcond=None)
        grad = np.zeros(policy.theta.size + n)
        for remaining, t, idx, to_go in batch_steps:
            baseline = coef[0] + coef[1] * remaining.bit_count() / n
            grad += (to_go - baseline) * _log_prob_grad(
                policy, remaining, t, idx)
        grad /= batch
        if not np.all(np.isfinite(grad)):
            raise ArithmeticError("non-finite policy gradient")
        policy.set_flat(policy.flat() + cfg.learning_rate * grad)
    return PgResult(best_order, best_cost, tuple(rewards), policy)


def _order_of(steps, n):
    seen = 0
    order = []
    for remaining, t, idx, _ in steps:
        members = list(bits(remaining))
        order.append(members[idx])
        seen |= 1 << members[idx]
    order.extend(bits(((1 << n) - 1) & ~seen))
    return tuple(order)


def score_gradient_samples(policy, finder, num_episodes, rng):
    """Per-episode likelihood-ratio gradient samples of the expected
    total reward, without a baseline (for estimator checks)."""
    dim = policy.theta.size + policy.n
    out = np.zeros((num_episodes, dim))
    for i in range(num_episodes):
        steps, total = _sample_episode(policy, finder, rng)
        acc = np.zeros(dim)
        for remaining, t, idx, _ in steps:
            acc += _log_prob_grad(policy, remaining, t, idx)
        out[i] = acc * total
    return out


def expected_cost(policy, finder):
    """Exact expected skeleton size under the policy (enumerates all
    trajectories; exponential, small n only)."""
    n = policy.n

    def walk(remaining, t):
        if remaining.bit_count() <= 1:
            return 0.0
        members, p = policy.probs(remaining, t)
        total = 0.0
        for j, v in enumerate(members):
            cost = finder.neighbor_mask(v, remaining).bit_count()
            total += p[j] * (cost + walk(remaining & ~(1 << v), t + 1))
        return total

    return walk((1 << n) - 1, 0)
