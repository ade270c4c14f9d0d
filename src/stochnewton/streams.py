"""Deterministic counter-based random streams.

Every random quantity in an experiment is drawn from a Philox
(counter-based) generator keyed by the master seed plus a purpose key,
e.g. ``(BATCH_STREAM, trial_index)``. Streams built from the same key
are identical, so paired optimization runs can consume the same batch
indices without sharing generator state, and a trial's draws do not
depend on which other trials are run with it, or in what order.
"""

import numpy as np

# Purpose tags for derived streams.
DATA_STREAM = 0
BATCH_STREAM = 1

__all__ = ["DATA_STREAM", "BATCH_STREAM", "derive_stream"]


def derive_stream(master_seed, *key):
    """Independent Generator keyed by (master_seed, *key).

    Same key, same stream; different keys give statistically independent
    streams. Results do not depend on creation order or thread count.
    """
    if not key:
        raise ValueError("at least one key component is required")
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
