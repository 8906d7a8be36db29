"""Record: the one frozen value base, built without generating code."""


class Record:
    """A frozen value whose fields are its class's own annotations, in order;
    a class attribute named like a field is its default.  Only ``__init__``
    fills an instance's ``__dict__``, in field order, then runs the class's
    ``__post_init__``.  Equal records share a class and fields; hashes are of fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            self.__dict__.update(self._bind(args, kwargs))
        else:
            self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> dict:
        if not args and tuple(kwargs) == cls._fields:
            return kwargs
        values, fields = dict(zip(cls._fields, args)), cls._fields
        for key in fields[len(args):]:
            if key not in kwargs and key not in vars(cls):
                raise TypeError(f"{cls.__name__}() missing field {key!r}")
            values[key] = kwargs.pop(key) if key in kwargs else vars(cls)[key]
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}; got extra or repeated ones")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{key}={value!r}" for key, value in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r} of a frozen record")

    __delattr__ = __setattr__
