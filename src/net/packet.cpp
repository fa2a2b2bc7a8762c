#include "net/packet.h"

// Packet and PacketView are header-only; this file anchors the translation
// unit so the library has a stable archive member for the types.
namespace bolt::net {}
