#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "os/types.h"

namespace doceph::os {

/// Mutation kinds supported by the stores (the subset of Ceph's
/// ObjectStore::Transaction ops this system needs).
enum class TxnOp : std::uint8_t {
  touch = 1,          ///< ensure object exists
  write = 2,          ///< write data at offset (extends if needed)
  write_full = 3,     ///< replace entire object content
  zero = 4,           ///< zero range
  truncate = 5,
  remove = 6,
  omap_set = 7,       ///< merge key/value pairs
  omap_rm_keys = 8,
  create_collection = 9,
  remove_collection = 10,
};

/// An ordered batch of mutations applied atomically by a store. Encodable:
/// the DoCeph proxy serializes transactions to ship them from the DPU-side
/// OSD to the host-side BlueStore (bulk data travels separately via DMA).
class Transaction {
 public:
  struct Op {
    TxnOp op{};
    coll_t cid{};
    ghobject_t oid{};
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    BufferList data{};                        // write payload
    std::map<std::string, BufferList> kv{};   // omap_set pairs
    std::vector<std::string> keys{};          // omap_rm_keys

    void encode(BufferList& bl) const;
    bool decode(BufferList::Cursor& cur);
  };

  // ---- builders --------------------------------------------------------------
  void touch(const coll_t& c, const ghobject_t& o);
  void write(const coll_t& c, const ghobject_t& o, std::uint64_t off, BufferList data);
  void write_full(const coll_t& c, const ghobject_t& o, BufferList data);
  void zero(const coll_t& c, const ghobject_t& o, std::uint64_t off, std::uint64_t len);
  void truncate(const coll_t& c, const ghobject_t& o, std::uint64_t size);
  void remove(const coll_t& c, const ghobject_t& o);
  void omap_set(const coll_t& c, const ghobject_t& o,
                std::map<std::string, BufferList> kv);
  void omap_rm_keys(const coll_t& c, const ghobject_t& o,
                    std::vector<std::string> keys);
  void create_collection(const coll_t& c);
  void remove_collection(const coll_t& c);

  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] std::size_t num_ops() const noexcept { return ops_.size(); }

  /// Bulk payload bytes carried by write/write_full/omap ops — what the
  /// DoCeph data plane moves over DMA.
  [[nodiscard]] std::uint64_t data_bytes() const noexcept;

  [[nodiscard]] std::vector<Op>& ops() noexcept { return ops_; }
  [[nodiscard]] const std::vector<Op>& ops() const noexcept { return ops_; }

  void append(Transaction&& other);

  /// Distributed-trace identity of the op this transaction belongs to.
  /// Encoded with the transaction, so it survives the primary->replica
  /// repop hop and the DPU->host WireTxn hop — the stores at both ends
  /// attach their commit spans to the same trace (DESIGN.md §12).
  void set_trace(const trace::TraceContext& ctx) noexcept { trace_ = ctx; }
  [[nodiscard]] const trace::TraceContext& trace() const noexcept { return trace_; }

  void encode(BufferList& bl) const;
  bool decode(BufferList::Cursor& cur);

 private:
  std::vector<Op> ops_;
  trace::TraceContext trace_;
};

}  // namespace doceph::os
