"""Call counters backing the complexity contracts; callers snapshot the
value before and after the work they measure."""


class CallCounter:
    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


SVD_CALLS = CallCounter()
ADAPTER_FORWARDS = CallCounter()
