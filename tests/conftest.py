from __future__ import annotations

import pytest

from duetbench.executor import available_cores

requires_two_cores = pytest.mark.skipif(
    available_cores() < 2, reason="duet execution needs at least two usable cores"
)
