"""From-scratch admission of a cold source into the serving pool.

A cold query (source not resident in the :class:`~repro.serve.cache.SourceCache`)
needs a from-scratch push — the expensive operation the serving layer
exists to avoid repeating. :meth:`AdmissionPool.admit` is the one place
in :mod:`repro.serve` that runs it: ``PPRService._admit`` calls it when a
read or a ``Prefetch`` names a source that is not resident, against the
view it pinned for the graph version it reads.
"""

from __future__ import annotations

from ..config import PPRConfig
from ..core.push_parallel import parallel_local_push
from ..core.state import PPRState
from ..graph.delta import CSRView


class AdmissionPool:
    """Push cold sources from scratch with the serving layer's config.

    Parameters
    ----------
    config:
        Push configuration shared by every admission (the serving layer
        passes its own, so admitted states match resident ones).
    """

    def __init__(self, config: PPRConfig) -> None:
        self.config = config

    def admit(self, view: CSRView, source: int, capacity: int) -> PPRState:
        """Converge ``source``'s state from scratch on ``view`` alone.

        ``capacity`` is the graph's id space the caller pinned with the
        view; the view must span it. The push reads nothing else — no
        graph a writer can mutate — so a caller may run it with the
        gateway lock released.
        """
        view.ensure_covers(capacity)
        state = PPRState.initial(source, capacity)
        parallel_local_push(state, None, self.config, seeds=[source], csr=view)
        return state
