#include "backend/primitives.hh"

namespace lego
{

std::string
primOpName(PrimOp op)
{
    switch (op) {
      case PrimOp::Const:
        return "const";
      case PrimOp::Counter:
        return "counter";
      case PrimOp::Tap:
        return "tap";
      case PrimOp::AddrGen:
        return "addrgen";
      case PrimOp::Valid:
        return "valid";
      case PrimOp::MemRead:
        return "mem_read";
      case PrimOp::MemWrite:
        return "mem_write";
      case PrimOp::Mul:
        return "mul";
      case PrimOp::Add:
        return "add";
      case PrimOp::Shl:
        return "shl";
      case PrimOp::Max:
        return "max";
      case PrimOp::Mux:
        return "mux";
      case PrimOp::Reduce:
        return "reduce";
      case PrimOp::Fifo:
        return "fifo";
      case PrimOp::Sink:
        return "sink";
    }
    panic("primOpName: bad op");
}

Int
primLatency(PrimOp op)
{
    switch (op) {
      case PrimOp::Mul:
        return 1; // Pipelined multiplier.
      case PrimOp::MemRead:
        return 1; // Synchronous SRAM read.
      default:
        return 0;
    }
}

} // namespace lego
