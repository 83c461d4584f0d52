"""Shared test helpers."""


def capture(link):
    """Install `link.on_transmit` and collect what it is called with.

    Returns one list per endpoint of the `(arrival, frame)` pairs sent to
    it, in send order. A test delivers or inspects frames from there.
    """
    got = ([], [])
    link.on_transmit = lambda dst, arrival, frame: got[dst].append((arrival, frame))
    return got
