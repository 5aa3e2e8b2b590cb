"""A keep for integrate that copies the states the run hands over.

    kept = Kept()
    traj = integrate(initial, t_end, output_times=..., keep=kept.keep(0.1, 0.2))
    kept.values[0.1]  # a copy of the state at the row 0.1 names

integrate calls each callable with the row's time and a read-only view of
its own state, valid only during the call; every call checks that the view
is read-only.
"""

from __future__ import annotations

from functools import partial

import numpy as np


class Kept:
    """row[t] is the row time integrate passed with keep time t, values[t] a
    copy of the values it passed, and passed[t] the passed array itself,
    which only identity checks may use.  order lists the keep times in the
    order of the calls."""

    def __init__(self):
        self.row, self.values, self.passed, self.order = {}, {}, {}, []

    def keep(self, *times) -> dict:
        return {t: partial(self._take, t) for t in times}

    def by_row(self) -> dict:
        """A copy of the values passed at each row, by the row's time."""
        return {self.row[t]: v for t, v in self.values.items()}

    def _take(self, t, t_row, values):
        assert not values.flags.writeable
        self.row[t] = t_row
        self.values[t] = np.array(values)
        self.passed[t] = values
        self.order.append(t)
