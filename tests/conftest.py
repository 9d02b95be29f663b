# wlift pins BLAS to one thread only if it loads before numpy does
import wlift  # noqa: F401
