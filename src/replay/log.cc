#include "src/replay/log.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace odf {

const char* OpKindName(OpKind kind) {
  static constexpr const char* kNames[] = {
#define ODF_REPLAY_OP_NAME(name) #name,
      ODF_REPLAY_OP_LIST(ODF_REPLAY_OP_NAME)
#undef ODF_REPLAY_OP_NAME
  };
  size_t index = static_cast<size_t>(kind);
  return index < kOpKindCount ? kNames[index] : "?";
}

namespace replay {

void PutVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

bool ByteReader::ReadVarint(uint64_t* out) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= bytes_.size()) {
      return false;
    }
    uint8_t byte = bytes_[pos_++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = value;
      return true;
    }
  }
  return false;  // Over-long encoding.
}

bool ByteReader::ReadByte(uint8_t* out) {
  if (pos_ >= bytes_.size()) {
    return false;
  }
  *out = bytes_[pos_++];
  return true;
}

bool ByteReader::ReadBytes(uint64_t length, std::vector<std::byte>* out) {
  if (remaining() < length) {
    return false;
  }
  const auto* data = reinterpret_cast<const std::byte*>(bytes_.data() + pos_);
  out->assign(data, data + length);
  pos_ += length;
  return true;
}

bool ReplayLog::Complete() const {
  if (ops_dropped != 0 || fi_dropped != 0) {
    return false;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].seq != i + 1) {
      return false;
    }
  }
  return true;
}

// --- Encoders -------------------------------------------------------------------------

void EncodeOpRaw(std::vector<uint8_t>& out, DeltaState& state, uint64_t seq, OpKind kind,
                 int32_t pid, uint64_t ts_ns, const uint64_t* args, uint32_t argc,
                 uint64_t status, uint64_t result, const std::byte* payload,
                 uint64_t payload_length) {
  out.push_back(static_cast<uint8_t>(RecordTag::kOp));
  PutVarint(out, seq - state.last_seq);
  state.last_seq = seq;
  PutVarint(out, static_cast<uint64_t>(kind));
  PutZigZag(out, static_cast<int64_t>(pid) - state.last_pid);
  state.last_pid = pid;
  PutZigZag(out, static_cast<int64_t>(ts_ns) - static_cast<int64_t>(state.last_ts));
  state.last_ts = ts_ns;
  PutVarint(out, argc);
  for (uint32_t i = 0; i < argc; ++i) {
    PutVarint(out, args[i]);
  }
  PutVarint(out, status);
  PutVarint(out, result);
  if (payload_length == 0) {
    out.push_back(static_cast<uint8_t>(PayloadKind::kNone));
    return;
  }
  bool uniform = true;
  for (uint64_t i = 1; i < payload_length; ++i) {
    if (payload[i] != payload[0]) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    out.push_back(static_cast<uint8_t>(PayloadKind::kFill));
    PutVarint(out, payload_length);
    out.push_back(static_cast<uint8_t>(payload[0]));
  } else {
    out.push_back(static_cast<uint8_t>(PayloadKind::kRaw));
    PutVarint(out, payload_length);
    const auto* data = reinterpret_cast<const uint8_t*>(payload);
    out.insert(out.end(), data, data + payload_length);
  }
}

void EncodeFiDecision(std::vector<uint8_t>& out, const FiDecisionRecord& record) {
  out.push_back(static_cast<uint8_t>(RecordTag::kFi));
  PutVarint(out, record.site);
  PutVarint(out, record.call);
  out.push_back(record.verdict ? 1 : 0);
}

void EncodeEvent(std::vector<uint8_t>& out, DeltaState& state, const LogTraceEvent& event) {
  out.push_back(static_cast<uint8_t>(RecordTag::kEvent));
  PutVarint(out, event.id);
  PutZigZag(out, static_cast<int64_t>(event.pid) - state.last_pid);
  state.last_pid = event.pid;
  PutZigZag(out, static_cast<int64_t>(event.ts_ns) - static_cast<int64_t>(state.last_ts));
  state.last_ts = event.ts_ns;
  const uint64_t args[3] = {event.a0, event.a1, event.a2};
  for (int i = 0; i < 3; ++i) {
    PutZigZag(out, static_cast<int64_t>(args[i]) - static_cast<int64_t>(state.last_a[i]));
    state.last_a[i] = args[i];
  }
}

void EncodeRingStat(std::vector<uint8_t>& out, const RingStatRecord& record) {
  out.push_back(static_cast<uint8_t>(RecordTag::kRingStat));
  PutVarint(out, record.tid);
  PutVarint(out, record.appended);
  PutVarint(out, record.overwritten);
}

void EncodeFinalProcess(std::vector<uint8_t>& out, const FinalProcessRecord& record) {
  out.push_back(static_cast<uint8_t>(RecordTag::kFinalProcess));
  PutVarint(out, static_cast<uint64_t>(record.pid));
  PutVarint(out, record.vma_count);
  PutVarint(out, record.present_pages);
  PutVarint(out, record.swap_pages);
  PutVarint(out, record.content_digest);
  PutVarint(out, record.ref_digest);
}

void EncodeFinalAlloc(std::vector<uint8_t>& out, const FinalAllocRecord& record) {
  out.push_back(static_cast<uint8_t>(RecordTag::kFinalAlloc));
  PutVarint(out, record.allocated_frames);
  PutVarint(out, record.page_table_frames);
  PutVarint(out, record.swap_slots_in_use);
}

void EncodeFinalVm(std::vector<uint8_t>& out, const FinalVmRecord& record) {
  out.push_back(static_cast<uint8_t>(RecordTag::kFinalVm));
  PutVarint(out, record.counter);
  PutVarint(out, record.delta);
}

void EncodeFinalFi(std::vector<uint8_t>& out, const FinalFiRecord& record) {
  out.push_back(static_cast<uint8_t>(RecordTag::kFinalFi));
  PutVarint(out, record.site);
  PutVarint(out, record.calls);
  PutVarint(out, record.injected);
}

void EncodeMeta(std::vector<uint8_t>& out, MetaKey key, uint64_t value) {
  out.push_back(static_cast<uint8_t>(RecordTag::kMeta));
  PutVarint(out, static_cast<uint64_t>(key));
  PutVarint(out, value);
}

// --- Decoder --------------------------------------------------------------------------

namespace {

bool DecodeOneOp(ByteReader& reader, DeltaState& state, uint64_t tid, OpRecord* op,
                 std::string* error) {
  uint64_t seq_delta = 0, kind = 0, argc = 0;
  int64_t pid_delta = 0, ts_delta = 0;
  if (!reader.ReadVarint(&seq_delta) || !reader.ReadVarint(&kind) ||
      !reader.ReadZigZag(&pid_delta) || !reader.ReadZigZag(&ts_delta) ||
      !reader.ReadVarint(&argc)) {
    *error = "truncated op record";
    return false;
  }
  if (kind >= kOpKindCount) {
    *error = "op record with unknown kind " + std::to_string(kind);
    return false;
  }
  if (argc > 16) {
    *error = "op record with implausible arg count";
    return false;
  }
  op->seq = state.last_seq + seq_delta;
  state.last_seq = op->seq;
  op->kind = static_cast<OpKind>(kind);
  op->pid = static_cast<int32_t>(state.last_pid + pid_delta);
  state.last_pid = op->pid;
  op->ts_ns = static_cast<uint64_t>(static_cast<int64_t>(state.last_ts) + ts_delta);
  state.last_ts = op->ts_ns;
  op->tid = static_cast<uint32_t>(tid);
  op->args.resize(argc);
  for (uint64_t& arg : op->args) {
    if (!reader.ReadVarint(&arg)) {
      *error = "truncated op args";
      return false;
    }
  }
  uint8_t payload_kind = 0;
  if (!reader.ReadVarint(&op->status) || !reader.ReadVarint(&op->result) ||
      !reader.ReadByte(&payload_kind)) {
    *error = "truncated op outcome";
    return false;
  }
  switch (static_cast<PayloadKind>(payload_kind)) {
    case PayloadKind::kNone:
      break;
    case PayloadKind::kFill: {
      uint64_t length = 0;
      uint8_t value = 0;
      if (!reader.ReadVarint(&length) || !reader.ReadByte(&value)) {
        *error = "truncated fill payload";
        return false;
      }
      op->payload.assign(length, static_cast<std::byte>(value));
      break;
    }
    case PayloadKind::kRaw: {
      uint64_t length = 0;
      if (!reader.ReadVarint(&length) || !reader.ReadBytes(length, &op->payload)) {
        *error = "truncated raw payload";
        return false;
      }
      break;
    }
    default:
      *error = "unknown payload kind";
      return false;
  }
  return true;
}

}  // namespace

bool DecodeChunk(std::span<const uint8_t> body, uint64_t tid, ReplayLog* log,
                 std::string* error) {
  ByteReader reader(body);
  DeltaState state;
  uint8_t tag = 0;
  while (reader.ReadByte(&tag)) {
    switch (static_cast<RecordTag>(tag)) {
      case RecordTag::kOp: {
        OpRecord op;
        if (!DecodeOneOp(reader, state, tid, &op, error)) {
          return false;
        }
        log->ops.push_back(std::move(op));
        break;
      }
      case RecordTag::kFi: {
        FiDecisionRecord record;
        uint64_t site = 0;
        uint8_t verdict = 0;
        if (!reader.ReadVarint(&site) || !reader.ReadVarint(&record.call) ||
            !reader.ReadByte(&verdict)) {
          *error = "truncated fi record";
          return false;
        }
        record.site = static_cast<uint32_t>(site);
        record.verdict = verdict != 0;
        log->fi_decisions.push_back(record);
        break;
      }
      case RecordTag::kEvent: {
        LogTraceEvent event;
        uint64_t id = 0;
        int64_t pid_delta = 0, ts_delta = 0;
        if (!reader.ReadVarint(&id) || !reader.ReadZigZag(&pid_delta) ||
            !reader.ReadZigZag(&ts_delta)) {
          *error = "truncated event record";
          return false;
        }
        event.id = static_cast<uint16_t>(id);
        event.tid = static_cast<uint32_t>(tid);
        event.pid = static_cast<int32_t>(state.last_pid + pid_delta);
        state.last_pid = event.pid;
        event.ts_ns = static_cast<uint64_t>(static_cast<int64_t>(state.last_ts) + ts_delta);
        state.last_ts = event.ts_ns;
        uint64_t* args[3] = {&event.a0, &event.a1, &event.a2};
        for (int i = 0; i < 3; ++i) {
          int64_t delta = 0;
          if (!reader.ReadZigZag(&delta)) {
            *error = "truncated event args";
            return false;
          }
          *args[i] = static_cast<uint64_t>(static_cast<int64_t>(state.last_a[i]) + delta);
          state.last_a[i] = *args[i];
        }
        log->events.push_back(event);
        break;
      }
      case RecordTag::kRingStat: {
        RingStatRecord record;
        uint64_t ring_tid = 0;
        if (!reader.ReadVarint(&ring_tid) || !reader.ReadVarint(&record.appended) ||
            !reader.ReadVarint(&record.overwritten)) {
          *error = "truncated ring-stat record";
          return false;
        }
        record.tid = static_cast<uint32_t>(ring_tid);
        log->ring_stats.push_back(record);
        break;
      }
      case RecordTag::kFinalProcess: {
        FinalProcessRecord record;
        uint64_t pid = 0;
        if (!reader.ReadVarint(&pid) || !reader.ReadVarint(&record.vma_count) ||
            !reader.ReadVarint(&record.present_pages) ||
            !reader.ReadVarint(&record.swap_pages) ||
            !reader.ReadVarint(&record.content_digest) ||
            !reader.ReadVarint(&record.ref_digest)) {
          *error = "truncated final-process record";
          return false;
        }
        record.pid = static_cast<int32_t>(pid);
        log->final_processes.push_back(record);
        break;
      }
      case RecordTag::kFinalAlloc: {
        FinalAllocRecord record;
        if (!reader.ReadVarint(&record.allocated_frames) ||
            !reader.ReadVarint(&record.page_table_frames) ||
            !reader.ReadVarint(&record.swap_slots_in_use)) {
          *error = "truncated final-alloc record";
          return false;
        }
        log->final_alloc = record;
        break;
      }
      case RecordTag::kFinalVm: {
        FinalVmRecord record;
        uint64_t counter = 0;
        if (!reader.ReadVarint(&counter) || !reader.ReadVarint(&record.delta)) {
          *error = "truncated final-vm record";
          return false;
        }
        record.counter = static_cast<uint32_t>(counter);
        log->final_vm.push_back(record);
        break;
      }
      case RecordTag::kFinalFi: {
        FinalFiRecord record;
        uint64_t site = 0;
        if (!reader.ReadVarint(&site) || !reader.ReadVarint(&record.calls) ||
            !reader.ReadVarint(&record.injected)) {
          *error = "truncated final-fi record";
          return false;
        }
        record.site = static_cast<uint32_t>(site);
        log->final_fi.push_back(record);
        break;
      }
      case RecordTag::kMeta: {
        uint64_t key = 0, value = 0;
        if (!reader.ReadVarint(&key) || !reader.ReadVarint(&value)) {
          *error = "truncated meta record";
          return false;
        }
        switch (static_cast<MetaKey>(key)) {
          case MetaKey::kFiSeed:
            log->fi_seed = value;
            break;
          case MetaKey::kMode:
            log->mode = static_cast<uint32_t>(value);
            break;
          case MetaKey::kFinalized:
            log->finalized = value != 0;
            break;
          case MetaKey::kOpsDropped:
            log->ops_dropped += value;
            break;
          case MetaKey::kEventsDropped:
            log->events_dropped += value;
            break;
          case MetaKey::kFiDropped:
            log->fi_dropped += value;
            break;
          case MetaKey::kFaultInjectCompiled:
            log->fault_inject_compiled = value != 0;
            break;
          case MetaKey::kTraceCompiled:
            log->trace_compiled = value != 0;
            break;
          default:
            break;  // Unknown meta keys are forward-compatible noise.
        }
        break;
      }
      default:
        *error = "unknown record tag " + std::to_string(tag);
        return false;
    }
  }
  return true;
}

// --- File I/O -------------------------------------------------------------------------

bool WriteLogFile(const std::string& path, const std::string& header_json,
                  const std::vector<const LogChunk*>& chunks, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = message + ": " + path;
    }
    return false;
  };
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return fail("cannot open log for writing");
  }
  bool ok = std::fwrite(kLogMagic, 1, 8, file) == 8;
  uint32_t header_length = static_cast<uint32_t>(header_json.size());
  uint8_t length_bytes[4] = {
      static_cast<uint8_t>(header_length),
      static_cast<uint8_t>(header_length >> 8),
      static_cast<uint8_t>(header_length >> 16),
      static_cast<uint8_t>(header_length >> 24),
  };
  ok = ok && std::fwrite(length_bytes, 1, 4, file) == 4;
  ok = ok && std::fwrite(header_json.data(), 1, header_json.size(), file) == header_json.size();
  for (const LogChunk* chunk : chunks) {
    if (!ok) {
      break;
    }
    std::vector<uint8_t> framing;
    framing.push_back(chunk->kind);
    PutVarint(framing, chunk->tid);
    PutVarint(framing, chunk->bytes.size());
    ok = std::fwrite(framing.data(), 1, framing.size(), file) == framing.size() &&
         std::fwrite(chunk->bytes.data(), 1, chunk->bytes.size(), file) == chunk->bytes.size();
  }
  if (std::fclose(file) != 0) {
    ok = false;
  }
  if (!ok) {
    return fail("short write");
  }
  return true;
}

bool ReadLogFile(const std::string& path, ReplayLog* out, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = message + ": " + path;
    }
    return false;
  };
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return fail("cannot open log");
  }
  std::vector<uint8_t> bytes;
  {
    uint8_t buffer[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      bytes.insert(bytes.end(), buffer, buffer + n);
    }
    std::fclose(file);
  }
  if (bytes.size() < 12 || std::memcmp(bytes.data(), kLogMagic, 8) != 0) {
    return fail("not an odf replay log (bad magic)");
  }
  uint32_t header_length = static_cast<uint32_t>(bytes[8]) |
                           static_cast<uint32_t>(bytes[9]) << 8 |
                           static_cast<uint32_t>(bytes[10]) << 16 |
                           static_cast<uint32_t>(bytes[11]) << 24;
  size_t pos = 12;
  if (bytes.size() - pos < header_length) {
    return fail("truncated header");
  }
  *out = ReplayLog{};
  out->header_json.assign(reinterpret_cast<const char*>(bytes.data() + pos), header_length);
  pos += header_length;
  while (pos < bytes.size()) {
    ByteReader framing(std::span<const uint8_t>(bytes).subspan(pos));
    uint8_t kind = 0;
    uint64_t tid = 0, length = 0;
    if (!framing.ReadByte(&kind) || !framing.ReadVarint(&tid) ||
        !framing.ReadVarint(&length)) {
      return fail("truncated chunk framing");
    }
    size_t body_offset = pos + (bytes.size() - pos - framing.remaining());
    if (length > bytes.size() - body_offset) {
      return fail("truncated chunk body");
    }
    std::string chunk_error;
    if (!DecodeChunk(std::span<const uint8_t>(bytes).subspan(body_offset, length), tid, out,
                     &chunk_error)) {
      return fail(chunk_error);
    }
    pos = body_offset + length;
  }
  std::stable_sort(out->ops.begin(), out->ops.end(),
                   [](const OpRecord& a, const OpRecord& b) { return a.seq < b.seq; });
  std::stable_sort(out->events.begin(), out->events.end(),
                   [](const LogTraceEvent& a, const LogTraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return true;
}

}  // namespace replay
}  // namespace odf
