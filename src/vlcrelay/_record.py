"""Frozen value classes with no generated code.

``Record`` stands in for ``@dataclass(frozen=True)``.  ``dataclasses``
imports ``inspect`` and compiles six methods for each class it builds,
which in a command that reads one small trace cost more start-up than the
counting; these plain methods are shared by every record class instead.
"""


class Record:
    """Base of a frozen value class.

    The fields are the subclass's own annotations, in order, and a class
    attribute of a field's name is that field's default.  ``__init__``
    binds positional and keyword arguments as a dataclass's does, then
    calls ``__post_init__`` if the class has one; ``repr``, ``==`` (on the
    same class only) and ``hash`` are a dataclass's, over the field tuple.
    Assigning or deleting an attribute raises ``AttributeError``, but
    ``object.__setattr__`` still sets one and ``functools.cached_property``
    still caches in the instance dict.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, f"{type(self).__qualname__}.__init__()"
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name} got multiple values for argument {key!r}")
            values[key] = value
        missing = [field for field in fields if field not in values
                   and field not in self._defaults]
        if missing:
            raise TypeError(f"{name} missing required argument(s) {missing}")
        self.__dict__.update({field: values[field] if field in values else self._defaults[field]
                              for field in fields})
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
