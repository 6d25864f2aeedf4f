"""Shared error type for contract violations, and the prefix that says
where one arose."""


class DomainError(ValueError):
    """An input violates an operation's contract.

    Carries a stable machine-readable ``code`` (``"empty-grid"``,
    ``"bad-scale"``, ...) so callers and the CLI can match on it without
    parsing prose.
    """

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


def prefixed(exc: ValueError, prefix: str) -> ValueError:
    """``exc`` with ``prefix`` before its message; a ``DomainError`` keeps its code."""
    if isinstance(exc, DomainError):
        return DomainError(exc.code, prefix + exc.detail)
    return ValueError(prefix + str(exc))
