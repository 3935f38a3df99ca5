"""The live appstore: catalog, download ledger, and simulation loop.

An :class:`AppStore` owns the app catalog, the user population, and the
behaviour engine, and advances one day at a time.  Each day it:

1. lists the apps scheduled to appear that day (developers publish new
   apps at the profile's Poisson rate);
2. simulates the day's downloads through the behaviour engine, enforcing
   fetch-at-most-once and the clustering effect, and gating paid apps
   through a purchase decision;
3. posts rated comments for a fraction of downloads (plus spam-account
   noise), which is the signal the affinity study consumes;
4. releases app updates for the actively maintained minority of apps,
   which trigger a trickle of re-downloads.

The crawler substrate (:mod:`repro.crawler`) observes a store only through
its public query methods, the same way the paper's crawler saw only the
stores' web pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.marketplace.behavior import DownloadBehavior, UserState
from repro.marketplace.catalog import CategoryTaxonomy
from repro.marketplace.segments import SegmentedPopulation
from repro.marketplace.entities import (
    App,
    AppStatistics,
    AppVersion,
    Comment,
    DownloadRecord,
    User,
)


@dataclass
class DailyActivity:
    """What happened in one simulated day (returned by ``advance_day``)."""

    day: int
    downloads: int
    purchases: int
    comments: int
    new_apps: int
    updates: int


class AppStore:
    """A simulated appstore, advanced one day at a time.

    Instances are normally built by :func:`repro.marketplace.generator.build_store`;
    the constructor wires together pre-generated populations.
    """

    def __init__(
        self,
        name: str,
        taxonomy: CategoryTaxonomy,
        apps: Sequence[App],
        users: Sequence[User],
        behavior: DownloadBehavior,
        rng: np.random.Generator,
        daily_download_rate: float,
        update_rates: Optional[Sequence[float]] = None,
        keep_download_log: bool = False,
        segments: Optional[SegmentedPopulation] = None,
        segment_behaviors: Optional[Sequence[DownloadBehavior]] = None,
    ) -> None:
        if len(apps) != behavior.n_apps:
            raise ValueError("apps and behaviour engine disagree on app count")
        if (segments is None) != (segment_behaviors is None):
            raise ValueError(
                "segments and segment_behaviors must be given together"
            )
        if segments is not None:
            if segments.n_users != len(users):
                raise ValueError("segment partition disagrees on user count")
            if len(segment_behaviors) != segments.n_segments:
                raise ValueError("one behaviour engine per segment required")
        self.name = name
        self.taxonomy = taxonomy
        self._apps: List[App] = list(apps)
        self._users: List[User] = list(users)
        self._behavior = behavior
        self._rng = rng
        self.daily_download_rate = float(daily_download_rate)
        if self.daily_download_rate < 0:
            raise ValueError("daily_download_rate must be non-negative")

        if update_rates is None:
            self._update_rates = np.zeros(len(apps), dtype=np.float64)
        else:
            self._update_rates = np.asarray(update_rates, dtype=np.float64)
            if self._update_rates.shape != (len(apps),):
                raise ValueError("update_rates must match app count")
            if np.any(self._update_rates < 0) or np.any(self._update_rates > 1):
                raise ValueError("update_rates must lie in [0, 1]")

        self.day = 0
        self._downloads = np.zeros(len(apps), dtype=np.int64)
        self._rating_sums = np.zeros(len(apps), dtype=np.int64)
        self._rating_counts = np.zeros(len(apps), dtype=np.int64)
        self._comment_counts = np.zeros(len(apps), dtype=np.int64)
        self._user_states: List[UserState] = [UserState() for _ in users]
        self._comments: List[Comment] = []
        self._comments_by_app: Dict[int, List[Comment]] = {}
        self._download_log: List[DownloadRecord] = []
        self._keep_download_log = keep_download_log
        self._daily_totals: List[DailyActivity] = []

        activity = np.array([user.activity for user in users], dtype=np.float64)
        if activity.sum() <= 0:
            raise ValueError("user population has no activity")
        self._user_pick_probabilities = activity / activity.sum()

        self._segments = segments
        if segments is not None:
            self._segment_behaviors: List[DownloadBehavior] = list(
                segment_behaviors
            )
            self._segment_of_user = np.repeat(
                np.arange(segments.n_segments, dtype=np.int64),
                segments.sizes,
            )
            self._downloads_by_segment = np.zeros(
                (segments.n_segments, len(apps)), dtype=np.int64
            )
            self._update_weights = np.array(
                [seg.update_affinity for seg in segments.segments],
                dtype=np.float64,
            )
        else:
            self._segment_behaviors = [behavior]
            self._segment_of_user = np.zeros(len(users), dtype=np.int64)
            self._downloads_by_segment = np.zeros(
                (1, len(apps)), dtype=np.int64
            )
            self._update_weights = np.ones(1, dtype=np.float64)
        # Weighted update refreshes only when segments actually differ in
        # update affinity: the unweighted branch below must keep consuming
        # the exact same RNG stream as the pre-segment store, so any
        # equal-parameter partition stays byte-identical to the global run.
        self._weighted_updates = (
            segments is not None and not segments.uniform_update_affinity
        )

    # ------------------------------------------------------------------
    # Public read API (what the crawler sees)
    # ------------------------------------------------------------------

    @property
    def n_apps(self) -> int:
        """Total apps ever created (listed or scheduled)."""
        return len(self._apps)

    @property
    def n_users(self) -> int:
        """Size of the user population."""
        return len(self._users)

    def listed_app_ids(self, day: Optional[int] = None) -> List[int]:
        """IDs of apps listed (publicly visible) on ``day`` (default: today)."""
        day = self.day if day is None else day
        return [app.app_id for app in self._apps if app.listing_day <= day]

    def app(self, app_id: int) -> App:
        """The app entity for an ID."""
        return self._apps[app_id]

    def apps(self) -> List[App]:
        """All app entities (including not-yet-listed ones)."""
        return list(self._apps)

    def statistics(self, app_id: int) -> AppStatistics:
        """The public statistics page of an app."""
        app = self._apps[app_id]
        version = app.current_version
        return AppStatistics(
            app_id=app_id,
            total_downloads=int(self._downloads[app_id]),
            rating_sum=int(self._rating_sums[app_id]),
            rating_count=int(self._rating_counts[app_id]),
            comment_count=int(self._comment_counts[app_id]),
            version_name=version.version_name if version else "1.0",
            price=app.price,
        )

    def download_counts(self) -> np.ndarray:
        """Per-app cumulative download counts (a copy)."""
        return self._downloads.copy()

    @property
    def segments(self) -> Optional[SegmentedPopulation]:
        """The persona partition this store runs under (``None`` = global)."""
        return self._segments

    def segment_download_counts(self) -> np.ndarray:
        """Per-(segment, app) cumulative download counts (a copy).

        Shape ``(n_segments, n_apps)``; a single all-users segment when the
        store runs the global profile.  Rows sum to :meth:`download_counts`.
        """
        return self._downloads_by_segment.copy()

    def total_downloads(self) -> int:
        """Cumulative downloads across all apps."""
        return int(self._downloads.sum())

    def comments(self) -> List[Comment]:
        """All public comments in posting order."""
        return list(self._comments)

    def comments_for_app(self, app_id: int) -> List[Comment]:
        """Public comments on one app, in posting order."""
        return list(self._comments_by_app.get(app_id, []))

    def download_log(self) -> List[DownloadRecord]:
        """The raw download event log (empty unless ``keep_download_log``)."""
        return list(self._download_log)

    def daily_activity(self) -> List[DailyActivity]:
        """Per-day activity summaries since store creation."""
        return list(self._daily_totals)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def advance_day(self) -> DailyActivity:
        """Simulate one day of store activity and return its summary."""
        day = self.day
        new_apps = sum(1 for app in self._apps if app.listing_day == day)
        updates = self._release_updates(day)
        downloads, purchases, comments = self._simulate_downloads(day)
        activity = DailyActivity(
            day=day,
            downloads=downloads,
            purchases=purchases,
            comments=comments,
            new_apps=new_apps,
            updates=updates,
        )
        self._daily_totals.append(activity)
        self.day += 1
        return activity

    def advance_days(self, n_days: int) -> List[DailyActivity]:
        """Simulate ``n_days`` consecutive days."""
        if n_days < 0:
            raise ValueError("n_days must be non-negative")
        return [self.advance_day() for _ in range(n_days)]

    def _release_updates(self, day: int) -> int:
        """Release new versions for actively maintained listed apps."""
        listed = np.array(
            [app.listing_day <= day for app in self._apps], dtype=bool
        )
        rates = np.where(listed, self._update_rates, 0.0)
        coins = self._rng.random(rates.size)
        to_update = np.flatnonzero(coins < rates)
        for app_id in to_update:
            app = self._apps[app_id]
            current = app.current_version
            if current is None:
                continue
            next_code = current.apk.version_code + 1
            new_apk = type(current.apk)(
                package_name=current.apk.package_name,
                version_code=next_code,
                size_mb=current.apk.size_mb,
                embedded_libraries=current.apk.embedded_libraries,
            )
            app.versions.append(
                AppVersion(
                    version_name=f"1.{next_code}",
                    release_day=day,
                    apk=new_apk,
                )
            )
            # An update allows a trickle of re-downloads from existing
            # owners; this is the only violation of fetch-at-most-once the
            # paper acknowledges, and it is small (Figure 4).
            owners = [
                user_id
                for user_id, state in enumerate(self._user_states)
                if app_id in state.downloaded
            ]
            if owners:
                refresh_count = max(1, int(0.05 * len(owners)))
                size = min(refresh_count, len(owners))
                if self._weighted_updates:
                    # Update-chasers refresh more eagerly: owners are drawn
                    # with probability proportional to their segment's
                    # update affinity.
                    weights = self._update_weights[
                        self._segment_of_user[np.asarray(owners, dtype=np.int64)]
                    ]
                    refreshed = self._rng.choice(
                        len(owners),
                        size=size,
                        replace=False,
                        p=weights / weights.sum(),
                    )
                else:
                    refreshed = self._rng.choice(
                        len(owners), size=size, replace=False
                    )
                for position in np.atleast_1d(refreshed):
                    self._downloads[app_id] += 1
                    owner_segment = self._segment_of_user[owners[int(position)]]
                    self._downloads_by_segment[owner_segment, app_id] += 1
                    if self._keep_download_log:
                        self._download_log.append(
                            DownloadRecord(
                                user_id=owners[int(position)],
                                app_id=int(app_id),
                                day=day,
                                is_update=True,
                            )
                        )
        return int(to_update.size)

    def _simulate_downloads(self, day: int) -> Tuple[int, int, int]:
        """Run the day's download events; returns (downloads, purchases, comments)."""
        n_events = int(self._rng.poisson(self.daily_download_rate))
        if n_events == 0:
            return 0, 0, 0
        user_ids = self._rng.choice(
            self.n_users, size=n_events, p=self._user_pick_probabilities
        )
        downloads = purchases = comment_count = 0
        for user_id in user_ids:
            state = self._user_states[user_id]
            segment = int(self._segment_of_user[user_id])
            behavior = self._segment_behaviors[segment]
            app_index = behavior.next_download(state, day, self._rng)
            if app_index is None:
                continue
            app = self._apps[app_index]
            state.record(app_index, behavior.category_of(app_index))
            self._downloads[app_index] += 1
            self._downloads_by_segment[segment, app_index] += 1
            downloads += 1
            if app.is_paid:
                purchases += 1
            if self._keep_download_log:
                self._download_log.append(
                    DownloadRecord(user_id=int(user_id), app_id=int(app_index), day=day)
                )
            user = self._users[user_id]
            if self._rng.random() < user.comment_probability:
                rating = int(self._rng.integers(1, 6))
                comment = Comment(
                    user_id=int(user_id),
                    app_id=int(app_index),
                    day=day,
                    rating=rating,
                )
                self._comments.append(comment)
                self._comments_by_app.setdefault(int(app_index), []).append(
                    comment
                )
                self._rating_sums[app_index] += rating
                self._rating_counts[app_index] += 1
                self._comment_counts[app_index] += 1
                comment_count += 1
        return downloads, purchases, comment_count
