"""Strict parsing of boolean environment flags.

Flags such as ``REPRO_CACHE_DISABLE`` used to be tested for a
non-empty string, so ``=0`` turned them *on*.
:func:`env_flag` is the one parser: it accepts the usual spellings and
rejects everything else, so a typo never silently flips a switch.
"""

from __future__ import annotations

import os

_ON = frozenset({"1", "true", "yes", "on"})
_OFF = frozenset({"", "0", "false", "no", "off"})


def env_flag(name: str) -> bool:
    """The boolean value of environment variable *name*.

    ``1``/``true``/``yes``/``on`` (in any case) turn the flag on;
    ``0``/``false``/``no``/``off``, an empty string or an unset
    variable leave it off.  Any other value raises ``ValueError``
    naming the variable.
    """
    value = os.environ.get(name, "")
    if value.lower() in _ON:
        return True
    if value.lower() in _OFF:
        return False
    raise ValueError(
        f"{name}={value!r} is not a boolean flag: use one of "
        "1/true/yes/on or 0/false/no/off"
    )
