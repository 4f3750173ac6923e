"""Suite-wide test settings: every hypothesis property runs derandomized
(the same examples on every run) and without a per-example deadline, so a
property states only its ``max_examples``."""
from hypothesis import settings

settings.register_profile("gkpmdi", derandomize=True, deadline=None)
settings.load_profile("gkpmdi")
