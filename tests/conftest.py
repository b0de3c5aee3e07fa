import pytest
from hypothesis import settings

from costaskit import density

# One Hypothesis setting for every property test: no deadline, so a loaded
# runner cannot fail an example for being slow. Tests set only max_examples.
settings.register_profile("costaskit", deadline=None)
settings.load_profile("costaskit")


@pytest.fixture(autouse=True)
def _no_kept_segment_masks():
    # Every test starts with an empty census segment memo, so no test reads
    # masks another one computed, and forked workers inherit none.
    density._SEGMENT_MASKS.clear()
