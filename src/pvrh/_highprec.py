"""mp entry points of the oracle.

Double precision cannot separate the exponentially small solution mode of
the truncated families at |x| near 60 from roundoff: the mode scales like
exp(-|x|), while the connection solve at the matching point cancels about
exp(|x|/2) worth of digits when it digs the subdominant column out of the
local frame.  Both the ray transport of the seed and the linear solve
therefore need tens of extra digits before the small monodromy entries of
such seeds mean anything.

The ray stepper, the drift driver and the monodromy chain live once in
pvrh.oracle and run here on mpf / mpc states at the working precision;
this module only sets that precision.  The dps arguments of the oracle
select it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import mpmath as mp

from . import oracle
from .mono_core import MonodromyPair, ThetaTriple


def direct_monodromy_mp(theta: ThetaTriple, phi: float, t, y,
                        z) -> MonodromyPair:
    """Monodromy pair of the state (t, phi, y, zfrak) in mp scalars.

    Call under mp.workdps; y and z may be mpc (full precision) or complex.
    The mp state selects the mp backend of oracle.direct_monodromy.
    """
    state = oracle.LinearSystemState(mp.mpf(t), phi, mp.mpc(y), mp.mpc(z),
                                     theta)
    return oracle.direct_monodromy(state)


def drift_pairs_mp(theta: ThetaTriple, seed: Dict[str, complex],
                   t_list: Sequence[float], dps: int = 50
                   ) -> Tuple[List[float], List[MonodromyPair]]:
    """Raw monodromy pairs along one trajectory (oracle._drift_pairs) in mp.

    The states stay at dps digits between the ray legs and the solves;
    rounding them to doubles would re-inject the exp(-|x|) noise.
    """
    with mp.workdps(dps):
        return oracle._drift_pairs(theta, seed, t_list, mp.mpc)
