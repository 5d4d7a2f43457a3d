"""Example applications from the paper's motivation sections."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "card_game": ("CardGame", "CardPlayer"),
    "conference": ("ConferenceSystem", "document_machine", "document_spec"),
    "file_service": ("FileService", "file_machine", "file_spec"),
    "counter": (
        "CounterService",
        "multi_counter_machine",
        "multi_counter_spec",
    ),
    "kvstore": ("KeyedFrontEnd", "KVStoreSystem", "kv_machine", "kv_spec"),
    "lock_service": ("LockMember", "LockService"),
    "name_service": ("NameServiceMember", "NameServiceSystem", "QueryAnswer"),
})

__all__ = [
    "CardGame",
    "CardPlayer",
    "ConferenceSystem",
    "CounterService",
    "FileService",
    "KVStoreSystem",
    "KeyedFrontEnd",
    "LockMember",
    "LockService",
    "NameServiceMember",
    "NameServiceSystem",
    "QueryAnswer",
    "document_machine",
    "document_spec",
    "file_machine",
    "file_spec",
    "kv_machine",
    "kv_spec",
    "multi_counter_machine",
    "multi_counter_spec",
]
