"""``Record``: the frozen record base of the package's result and law classes.

It gives them what they used of a frozen dataclass, with generic methods
in place of generated ones: importing ``dataclasses`` loads ``inspect``
(and with it ``ast``, ``dis`` and ``tokenize``) and compiles each class's
methods with ``exec``, which was a large share of a command's cold start.
"""

__all__ = ["Record"]

_MISSING = object()


class Record:
    """A frozen record.

    The fields are the annotated names of the class and of its ``Record``
    bases, base first; a name declared again keeps its first place.  A class
    attribute of the same name is the field's default.  ``__init__`` binds
    positional and keyword arguments to the fields, then calls
    ``__post_init__``, which may set attributes with ``object.__setattr__``.
    Instances refuse assignment, compare and hash by type and field values,
    print as ``Name(field=value, ...)`` and give their fields by
    ``_asdict()``.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = {}
        for base in reversed(cls.__mro__):
            if issubclass(base, Record) and base is not Record:
                for name in base.__dict__.get("__annotations__", {}):
                    fields[name] = base.__dict__.get(name, _MISSING)
        cls._fields = tuple(fields)
        cls._defaults = {name: value for name, value in fields.items() if value is not _MISSING}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} positional "
                            f"arguments but {len(args)} were given")
        given = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name in given or name not in cls._fields:
                problem = "multiple values for" if name in given else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
            given[name] = value
        for name in cls._fields:
            if name not in given and name not in cls._defaults:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        self.__dict__.update(cls._defaults)
        self.__dict__.update(given)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash((type(self),) + self._astuple())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
