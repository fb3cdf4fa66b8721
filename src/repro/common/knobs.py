"""Every ``REPRO_*`` environment switch, declared once.

Each :class:`Knob` names one environment variable, the value it takes
when unset, and its *effect* — which identities it must join:

* :data:`COMPUTE` — changes how a simulation computes its result
  (kernel tier).  Folded into every store digest, the
  per-context evaluation memo key, the warm pool's identity and the
  service's request digest;
* :data:`STORAGE` — changes where results persist.  Joins the
  evaluation memo key, the pool identity and the request digest, but
  not store digests (an artifact is the same wherever it is stored).

Readers consult ``os.environ`` on every call, so a switch flipped
mid-process takes effect at once.  A new switch is one more entry in
:data:`KNOBS`; no other module reads a ``REPRO_*`` variable.  A choice
that already has a selector is not a switch: the per-event reference
kernel is the regimes' ``bulk=False`` argument (``backend="event"`` in
the schedulers), and the store is turned off by ``--no-cache``
(:func:`repro.common.storage.cache_overrides`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

COMPUTE = "compute"
STORAGE = "storage"

#: Values that turn an on/off switch off (case-insensitive).
_OFF = ("0", "off", "false", "no")


@dataclass(frozen=True)
class Knob:
    """One environment switch: its name, unset value and effect."""

    name: str
    default: str
    effect: str

    def value(self) -> str:
        """The raw setting, :attr:`default` when unset."""
        return os.environ.get(self.name, self.default)

    def enabled(self) -> bool:
        """On/off reading: off for ``0``/``off``/``false``/``no``
        (case-insensitive), on for anything else, unset included when
        the default is on.

        >>> knob = Knob("EXAMPLE_SWITCH", "1", COMPUTE)
        >>> knob.enabled()
        True
        >>> os.environ["EXAMPLE_SWITCH"] = "Off"
        >>> knob.enabled()
        False
        >>> os.environ.pop("EXAMPLE_SWITCH")
        'Off'
        """
        return self.value().lower() not in _OFF


ANALYTIC = Knob("REPRO_ANALYTIC", "1", COMPUTE)
#: Read literally: the cache directory; empty means the default.
CACHE_DIR = Knob("REPRO_CACHE_DIR", "", STORAGE)

KNOBS: Tuple[Knob, ...] = (ANALYTIC, CACHE_DIR)


def settings(*effects: str) -> Tuple[Tuple[str, str], ...]:
    """``(name, value)`` of every knob whose effect is in *effects*, in
    declaration order — the form the digests and memo keys fold in."""
    return tuple((knob.name, knob.value()) for knob in KNOBS if knob.effect in effects)
