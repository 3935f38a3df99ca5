"""Categorical sampling via the alias method (Vose's algorithm).

The Monte Carlo download simulators draw hundreds of thousands to millions of
samples from fixed categorical distributions (global Zipf over all apps,
per-cluster Zipf over the apps of a category).  A naive inverse-CDF search is
O(log n) per draw and, worse, re-building cumulative sums repeatedly is O(n).
The alias method spends O(n) once at construction and then answers each draw
in O(1) with exactly two random numbers.
"""

from __future__ import annotations


import numpy as np

from repro.contracts import pure
from repro.stats.rng import SeedLike, make_rng


@pure
def _build_alias_table(weights: np.ndarray, total: float):
    """Vectorized Vose construction of the (prob, alias) tables.

    The classic construction pops one underfull ("small") and one
    overfull ("large") outcome per iteration of a Python loop.  This
    build finalizes *every* current small per pass instead: cumulative
    deficits of the smalls are matched against cumulative surpluses of
    the larges with one ``searchsorted``, each small takes its alias from
    the large its deficit lands on, and larges that drop below one
    re-enter the next pass as smalls.  Every pass finalizes all its
    smalls, so the number of passes is tiny in practice (Zipf-shaped
    inputs take a handful), and each pass is pure NumPy.

    The alias-method invariant is preserved exactly as in the scalar
    algorithm: finalizing small ``s`` against large ``g`` moves
    ``1 - p[s]`` of ``g``'s mass into column ``s``.  A boundary small
    whose deficit straddles two larges over-draws its large by less than
    one unit, which keeps that large's residual strictly positive --
    the same numerical-leftover regime the scalar build has, drained the
    same way (residuals converge to probability one).
    """
    n = weights.size
    scaled = weights * (n / total)
    alias = np.arange(n, dtype=np.int64)
    prob = np.ones(n, dtype=np.float64)

    small = np.flatnonzero(scaled < 1.0)
    large = np.flatnonzero(scaled >= 1.0)
    while small.size and large.size:
        deficits = 1.0 - scaled[small]
        surpluses = scaled[large] - 1.0
        # Which large does each small's cumulative deficit land on?  The
        # pool's total deficit equals its total surplus exactly, so only
        # float roundoff in the cumsums can push a boundary small past
        # the last large; clamping parks it there, over-drawing by at
        # most that roundoff.
        owner = np.searchsorted(np.cumsum(surpluses), np.cumsum(deficits))
        np.minimum(owner, large.size - 1, out=owner)
        prob[small] = scaled[small]
        alias[small] = large[owner]
        consumed = np.bincount(owner, weights=deficits, minlength=large.size)
        scaled[large] -= consumed
        still_large = scaled[large] >= 1.0
        small = large[~still_large]
        large = large[still_large]
    return prob, alias


class AliasSampler:
    """O(1) sampler over a fixed discrete distribution.

    Parameters
    ----------
    weights:
        Non-negative weights, one per outcome.  They do not need to sum to
        one; normalization happens internally.

    Examples
    --------
    >>> sampler = AliasSampler([0.7, 0.2, 0.1])
    >>> draws = sampler.sample(1000, seed=42)
    >>> int(draws.min()) >= 0 and int(draws.max()) <= 2
    True
    """

    def __init__(self, weights) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {weights.shape}")
        if weights.size == 0:
            raise ValueError("weights must be non-empty")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("weights must have a positive sum")

        self._prob, self._alias = _build_alias_table(weights, total)
        # float32 copy for the batched accept test: one compare against a
        # [0, 1) threshold needs no double precision, and float32 coins
        # are cheaper to generate and compare at batch sizes.
        self._prob32 = self._prob.astype(np.float32)
        self._weights = weights / total

    @property
    def n_outcomes(self) -> int:
        """Number of outcomes in the distribution."""
        return self._prob.size

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized outcome probabilities (a copy)."""
        return self._weights.copy()

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``size`` outcome indices.

        Returns an ``int64`` array of indices in ``[0, n_outcomes)``.
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        rng = make_rng(seed)
        columns = rng.integers(0, self.n_outcomes, size=size)
        coins = rng.random(size)
        take_alias = coins >= self._prob[columns]
        return np.where(take_alias, self._alias[columns], columns)

    def sample_fast(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` outcome indices with float32 accept coins.

        Statistically equivalent to :meth:`sample` (the accept test is a
        single threshold compare, which needs no double precision) but
        roughly twice as cheap to generate and compare at batch sizes.
        The coin dtype changes generator consumption, so this produces a
        *different* -- equally valid -- stream than :meth:`sample`; the
        rejection-free download kernels use it, while :meth:`sample`
        keeps the historical stream for existing callers.
        """
        columns = rng.integers(0, self.n_outcomes, size=size)
        take_alias = rng.random(size, dtype=np.float32) >= self._prob32[columns]
        return np.where(take_alias, self._alias[columns], columns)

    def sample_one(self, rng: np.random.Generator) -> int:
        """Draw a single outcome index using an existing generator."""
        column = int(rng.integers(0, self.n_outcomes))
        if rng.random() < self._prob[column]:
            return column
        return int(self._alias[column])


#: Default head width of a :class:`HeadTailSampler`.  Eight slots keep a
#: user's head-ownership bits inside a single ledger byte, and for the
#: paper's Zipf exponents the top eight outcomes already carry most of
#: the mass (85% at ``zr = 1.7``), so masked redraws in the tail are rare.
DEFAULT_HEAD_SIZE = 8


class HeadTailSampler:
    """A categorical split into an explicit top-``K`` head and an alias tail.

    The fetch-at-most-once kernels renormalize a distribution against a
    user's download ledger.  Doing that exactly over all ``n`` outcomes
    is O(n) per draw; doing it by rejection alone degenerates on the
    heavy head of a Zipf law, where a user quickly owns the most likely
    outcomes and nearly every redraw repeats one of them.  Splitting the
    distribution solves both ends:

    - the **head** -- the ``K`` largest-weight outcomes -- is small enough
      to mask and renormalize exactly against per-user ownership bits;
    - the **tail** -- everything else -- is drawn from a dedicated
      :class:`AliasSampler` and thinned against the ledger, which is a
      near-certain accept because a user rarely owns much tail mass.

    Weights need not be normalized; ``head_weights`` and ``tail_weight``
    share the input scale so mixture arithmetic can use them directly.
    ``outcomes`` optionally maps local outcome indices to external ids
    (e.g. cluster-member positions to global app indices); ``head`` and
    tail draws are then expressed in the external id space.
    """

    def __init__(
        self,
        weights,
        head_size: int = DEFAULT_HEAD_SIZE,
        outcomes=None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        if head_size < 1:
            raise ValueError("head_size must be >= 1")
        if outcomes is None:
            outcomes = np.arange(weights.size, dtype=np.int64)
        else:
            outcomes = np.asarray(outcomes, dtype=np.int64)
            if outcomes.shape != weights.shape:
                raise ValueError("outcomes must align with weights")
        order = np.argsort(-weights, kind="stable")
        k = min(head_size, weights.size)
        self.head = outcomes[order[:k]]
        self.head_weights = weights[order[:k]]
        tail_order = order[k:]
        self._tail_outcomes = outcomes[tail_order]
        tail_weights = weights[tail_order]
        self.tail_weight = float(tail_weights.sum())
        self._tail_sampler = (
            AliasSampler(tail_weights) if self.tail_weight > 0 else None
        )
        self._byte_tables = None

    @property
    def head_size(self) -> int:
        """Number of outcomes in the head."""
        return self.head.size

    @property
    def has_tail(self) -> bool:
        """Whether any positive mass sits outside the head."""
        return self._tail_sampler is not None

    def sample_tail(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` tail outcomes (external ids, unthinned)."""
        if self._tail_sampler is None:
            raise ValueError("distribution has no tail mass to sample")
        return self._tail_outcomes[self._tail_sampler.sample_fast(size, rng)]

    @property
    def tail_outcomes(self) -> np.ndarray:
        """External ids of tail outcomes, in alias-table order (a view).

        ``sample_tail(size, rng)`` equals
        ``tail_outcomes[sample_tail_indices(size, rng)]``; callers that
        pre-compose this mapping with their own tables (the fused
        clustered kernel) skip a gather per draw.
        """
        return self._tail_outcomes

    def sample_tail_indices(
        self, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``size`` positions into :attr:`tail_outcomes`."""
        if self._tail_sampler is None:
            raise ValueError("distribution has no tail mass to sample")
        return self._tail_sampler.sample_fast(size, rng)

    def head_byte_tables(self):
        """Masked-head cumulative tables indexed by ownership byte.

        With ``k <= 8`` head slots, a user's head ownership packs into
        one byte, and the masked cumulative weights depend on nothing
        else -- so all ``2**k`` renormalizations can be precomputed.
        Returns ``(cums, avail)`` where ``cums[b, j]`` is the cumulative
        masked head weight through slot ``j`` for ownership byte ``b``
        and ``avail[b] = cums[b, -1]`` is the surviving head mass.  The
        masked-draw kernels turn their per-user O(k) renormalization
        loop into two table gathers.  float32 throughout: the handful of
        O(1)-magnitude partial sums are far inside float32's exact
        range, and the tables' 256-row working set stays in L1.
        """
        if self._byte_tables is None:
            k = self.head.size
            if k > 8:
                raise ValueError("byte tables require head_size <= 8")
            codes = np.arange(1 << k, dtype=np.uint16)
            open_ = ((codes[:, None] >> np.arange(k)[None, :]) & 1) == 0
            weights = self.head_weights.astype(np.float32)
            cums = np.cumsum(
                open_ * weights[None, :], axis=1, dtype=np.float32
            )
            if k < 8:
                # Bits >= k never appear in ledger masks, but padding to
                # 256 rows keeps the gather unconditional.
                cums = np.vstack([cums] * (1 << (8 - k)))
            self._byte_tables = (
                np.ascontiguousarray(cums),
                np.ascontiguousarray(cums[:, -1]),
            )
        return self._byte_tables
