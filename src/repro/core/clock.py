"""The one clock the serving system reads.

``clock.now()`` is the running event loop's clock: asyncio's default loops
read ``time.monotonic``, so a deadline taken from ``now`` may be handed to
``loop.call_at`` as it is.  ``clock.wall()`` is used only for stamps that
leave the process: worker heartbeats, registry records, a trace's
``wall_time``.  Read both through the module (``clock.now()``), so that a
test can rebind them for a whole run.
"""

import time

now = time.monotonic
wall = time.time
