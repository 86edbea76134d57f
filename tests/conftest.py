"""Shared fixtures: the periodic-shift reference stencils.

The package's stencils are slice forms that promise bit-identical output to
the textbook periodic-shift definitions below.  Tests compare against these
references directly, or swap them into the package to check that whole
integrator steps come out the same to the last bit.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import kgmlab.kernel


def roll_deriv_x(f, g):
    """(f[j+1] - f[j-1]) / (2h), built from two shifted copies."""
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * g.h)


def roll_deriv_xx(f, g):
    """((f[j+1] - 2 f[j]) + f[j-1]) / (h*h), built from two shifted copies."""
    return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / (g.h * g.h)


@pytest.fixture
def roll_stencils():
    """The reference pair (deriv_x, deriv_xx)."""
    return roll_deriv_x, roll_deriv_xx


@pytest.fixture
def use_roll_stencils(monkeypatch):
    """Callable that rebinds the reference stencils, for the rest of the
    test, in every loaded kgmlab namespace holding the package's own.

    The modules import the stencils by name, so patching kernel alone
    would leave every caller on the slice forms.
    """
    pairs = ((kgmlab.kernel.deriv_x, roll_deriv_x),
             (kgmlab.kernel.deriv_xx, roll_deriv_xx))

    def install() -> None:
        for key, module in list(sys.modules.items()):
            if module is None or not (key == "kgmlab" or key.startswith("kgmlab.")):
                continue
            for attr, val in list(vars(module).items()):
                for fast, ref in pairs:
                    if val is fast:
                        monkeypatch.setattr(module, attr, ref)
        assert kgmlab.kernel.deriv_x is roll_deriv_x

    return install
