"""The text of `json.dumps(value, indent=2)`, in chunks, for `cli.emit`.

A dict, list or tuple that holds only scalars and lists of ints is
joined into one chunk, so a polynomial's term is one chunk, not one per
token; only containers that hold other containers are walked element by
element.  Keys and scalars follow `json.dumps`'s defaults: non-ASCII
text escaped, `NaN` and `Infinity` allowed, keys converted to strings,
and a TypeError for any other key or value.  A string that is printable
ASCII with no `"` or `\\` is quoted as it is; `json` is imported only to
escape any other.
"""
_INFINITY = float("inf")
_CONTAINERS = (dict, list, tuple)


def chunks(value):
    """Yield the text of `json.dumps(value, indent=2)`, in pieces that
    join to it byte for byte."""
    text = _text(value, "\n")
    if text is None:
        yield from _chunks(value, "\n")
    else:
        yield text


def _chunks(value, nl: str):
    """Yield the text of a container that holds other containers, element
    by element; `nl` is a newline and the indent of its closing line."""
    inner = nl + "  "
    if isinstance(value, dict):
        yield "{"
        items = ((_key(key) + ": ", item) for key, item in value.items())
    else:
        yield "["
        items = (("", item) for item in value)
    head = inner
    for label, item in items:
        head += label
        if (text := _text(item, inner)) is None:
            yield head
            yield from _chunks(item, inner)
        else:
            yield head + text
        head = "," + inner
    yield nl + ("}" if isinstance(value, dict) else "]")


def _text(value, nl: str) -> str | None:
    """The text of a scalar, or of a container that holds only scalars
    and lists of ints; None for any other container."""
    if not isinstance(value, _CONTAINERS):
        return _scalar(value)
    inner = nl + "  "
    sep = "," + inner
    parts = []
    if isinstance(value, dict):
        for key, item in value.items():
            if (text := _leaf(item, inner)) is None:
                return None
            parts.append(f"{_key(key)}: {text}")
        return f"{{{inner}{sep.join(parts)}{nl}}}" if parts else "{}"
    for item in value:
        if (text := _leaf(item, inner)) is None:
            return None
        parts.append(text)
    return f"[{inner}{sep.join(parts)}{nl}]" if parts else "[]"


def _leaf(value, nl: str) -> str | None:
    """The text of a scalar or of a list of ints, else None."""
    if type(value) is str:
        return _string(value)
    if not isinstance(value, _CONTAINERS):
        return _scalar(value)
    if isinstance(value, dict) or not all(type(v) is int for v in value):
        return None
    if not value:
        return "[]"
    inner = nl + "  "
    # str of an exact int is its repr, as json writes it
    return f"[{inner}{(',' + inner).join(map(str, value))}{nl}]"


def _scalar(value) -> str:
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_scalar(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)
