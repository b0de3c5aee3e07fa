import pytest

from costaskit import density


@pytest.fixture(autouse=True)
def _no_kept_segment_masks():
    # Every test starts with an empty census segment memo, so no test reads
    # masks another one computed, and forked workers inherit none.
    density._SEGMENT_MASKS.clear()
