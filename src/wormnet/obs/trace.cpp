#include "wormnet/obs/trace.hpp"

#include "wormnet/obs/json.hpp"

namespace wormnet::obs {

// --- JSONL ----------------------------------------------------------------

void JsonlTraceSink::emit(const TraceEvent& ev) {
  const char* name = trace_name(ev.kind);
  if (name == nullptr) return;  // recorder-only kind
  JsonWriter w(os_);
  w.begin_object();
  w.field("c", ev.cycle);
  w.field("ev", name);
  if (ev.packet != kNoId) w.field("pkt", ev.packet);
  switch (ev.kind) {
    case EventKind::kPacketCreate:
      w.field("src", ev.node);
      w.field("dst", ev.node2);
      w.field("len", ev.value);
      if (ev.flag) w.field("measured", true);
      break;
    case EventKind::kInject:
      w.field("node", ev.node);
      w.field("ch", ev.channel);
      break;
    case EventKind::kRouteCompute:
      w.field("node", ev.node);
      if (ev.channel2 != kNoId) w.field("in", ev.channel2);
      w.field("cands", ev.value);
      break;
    case EventKind::kVcAlloc:
      w.field("node", ev.node);
      w.field("ch", ev.channel);
      break;
    case EventKind::kLinkTraverse:
      w.field("to", ev.channel);
      if (ev.channel2 != kNoId) w.field("from", ev.channel2);
      if (ev.flag) w.field("head", true);
      if (ev.flag2) w.field("tail", true);
      break;
    case EventKind::kBlock:
      w.field("node", ev.node);
      if (ev.channel2 != kNoId) w.field("in", ev.channel2);
      w.key("wait");
      w.begin_array();
      for (const std::uint32_t c : ev.list) w.number(std::uint64_t{c});
      w.end_array();
      break;
    case EventKind::kUnblock:
      w.field("node", ev.node);
      w.field("stalled", ev.value);  ///< cycles spent blocked
      break;
    case EventKind::kEject:
      w.field("node", ev.node);
      w.field("ch", ev.channel);
      if (ev.flag2) w.field("tail", true);
      break;
    case EventKind::kPacketDone:
      w.field("node", ev.node);
      w.field("lat", ev.value);
      break;
    case EventKind::kDeadlockCheck:
      w.field("blocked", ev.value);
      break;
    case EventKind::kDeadlockDetected:
      w.field("watchdog", ev.flag);
      // The reported cycle's packet count (a watchdog reports none).
      w.field("size", std::uint64_t{ev.list.size()});
      w.key("pkts");
      w.begin_array();
      for (const std::uint32_t p : ev.list) w.number(std::uint64_t{p});
      w.end_array();
      break;
    case EventKind::kFault:
    case EventKind::kRepair:
      w.field("epoch", ev.value);
      w.key("chs");
      w.begin_array();
      for (const std::uint32_t c : ev.list) w.number(std::uint64_t{c});
      w.end_array();
      break;
    case EventKind::kAbort:
      w.field("node", ev.node);
      w.field("attempt", ev.value);
      w.field("retry", ev.flag);
      break;
    case EventKind::kRetry:
      w.field("node", ev.node);
      w.field("attempt", ev.value);
      break;
    case EventKind::kRecovered:
      w.field("node", ev.node);
      w.field("attempts", ev.value);
      break;
    case EventKind::kSwitch:
    case EventKind::kRollback:
    case EventKind::kDrainSwitch:
      w.field("epoch", ev.value);
      w.key("dests");
      w.begin_array();
      for (const std::uint32_t d : ev.list) w.number(std::uint64_t{d});
      w.end_array();
      break;
    case EventKind::kRelease:
    case EventKind::kWaitVoid:
    case EventKind::kDrop:
      break;
  }
  w.end_object();
  os_ << '\n';
}

void JsonlTraceSink::flush() { os_.flush(); }

// --- Chrome trace_event ---------------------------------------------------

namespace {
/// Thread-id layout inside the single trace process: tid 0 carries packet
/// spans and global instants, tid 1+c is the track of channel c.
constexpr std::uint32_t kPacketTrack = 0;
constexpr std::uint32_t channel_track(std::uint32_t c) { return 1 + c; }
}  // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream& os,
                                 std::vector<std::string> channel_names)
    : os_(os), channel_names_(std::move(channel_names)) {
  preamble();
}

ChromeTraceSink::~ChromeTraceSink() {
  if (!closed_) {
    os_ << "\n]}\n";
    closed_ = true;
  }
}

void ChromeTraceSink::preamble() {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  auto thread_meta = [&](std::uint32_t tid, const std::string& name) {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
        << ",\"args\":{\"name\":";
    json_quote(os_, name);
    os_ << "}}";
  };
  os_ << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
         "{\"name\":\"wormnet sim\"}}";
  first_ = false;
  thread_meta(kPacketTrack, "packets");
  for (std::uint32_t c = 0; c < channel_names_.size(); ++c) {
    thread_meta(channel_track(c), channel_names_[c]);
  }
}

void ChromeTraceSink::event_prefix(const char* phase, const std::string& name,
                                   const char* category, std::uint64_t ts,
                                   std::uint32_t tid) {
  if (!first_) os_ << ',';
  first_ = false;
  os_ << "\n{\"name\":";
  json_quote(os_, name);
  os_ << ",\"cat\":\"" << category << "\",\"ph\":\"" << phase
      << "\",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << tid;
}

void ChromeTraceSink::emit(const TraceEvent& ev) {
  const std::uint64_t ts = ev.cycle;
  switch (ev.kind) {
    case EventKind::kPacketCreate: {
      std::string label = "pkt" + std::to_string(ev.packet) + " " +
                          std::to_string(ev.node) + "->" +
                          std::to_string(ev.node2);
      event_prefix("b", label, "packet", ts, kPacketTrack);
      os_ << ",\"id\":" << ev.packet << ",\"args\":{\"len\":" << ev.value
          << "}}";
      packet_labels_.emplace(ev.packet, std::move(label));
      break;
    }
    case EventKind::kPacketDone: {
      const auto it = packet_labels_.find(ev.packet);
      const std::string label =
          it != packet_labels_.end() ? it->second
                                     : "pkt" + std::to_string(ev.packet);
      event_prefix("e", label, "packet", ts, kPacketTrack);
      os_ << ",\"id\":" << ev.packet << ",\"args\":{\"latency\":" << ev.value
          << "}}";
      if (it != packet_labels_.end()) packet_labels_.erase(it);
      break;
    }
    case EventKind::kBlock: {
      event_prefix("b", "blocked", "block", ts, kPacketTrack);
      os_ << ",\"id\":" << ev.packet << ",\"args\":{\"pkt\":" << ev.packet
          << ",\"node\":" << ev.node << ",\"waiting\":[";
      for (std::size_t i = 0; i < ev.list.size(); ++i) {
        if (i) os_ << ',';
        os_ << ev.list[i];
      }
      os_ << "]}}";
      break;
    }
    case EventKind::kUnblock:
      event_prefix("e", "blocked", "block", ts, kPacketTrack);
      os_ << ",\"id\":" << ev.packet << ",\"args\":{\"stalled\":" << ev.value
          << "}}";
      break;
    case EventKind::kInject:
      event_prefix("i", "inject pkt" + std::to_string(ev.packet), "inject",
                   ts, channel_track(ev.channel));
      os_ << ",\"s\":\"t\",\"args\":{\"pkt\":" << ev.packet << "}}";
      break;
    case EventKind::kRouteCompute:
      event_prefix("i", "route pkt" + std::to_string(ev.packet), "route", ts,
                   ev.channel2 == kNoId ? kPacketTrack
                                        : channel_track(ev.channel2));
      os_ << ",\"s\":\"t\",\"args\":{\"pkt\":" << ev.packet
          << ",\"candidates\":" << ev.value << "}}";
      break;
    case EventKind::kVcAlloc:
      event_prefix("i", "alloc pkt" + std::to_string(ev.packet), "vc_alloc",
                   ts, channel_track(ev.channel));
      os_ << ",\"s\":\"t\",\"args\":{\"pkt\":" << ev.packet << "}}";
      break;
    case EventKind::kLinkTraverse:
      event_prefix("i",
                   std::string(ev.flag ? "head" : ev.flag2 ? "tail" : "flit") +
                       " pkt" + std::to_string(ev.packet),
                   "flit", ts, channel_track(ev.channel));
      os_ << ",\"s\":\"t\",\"args\":{\"pkt\":" << ev.packet << "}}";
      break;
    case EventKind::kEject:
      event_prefix("i", "eject pkt" + std::to_string(ev.packet), "eject", ts,
                   channel_track(ev.channel));
      os_ << ",\"s\":\"t\",\"args\":{\"pkt\":" << ev.packet << "}}";
      break;
    case EventKind::kDeadlockCheck:
      event_prefix("i", "deadlock check", "detector", ts, kPacketTrack);
      os_ << ",\"s\":\"t\",\"args\":{\"blocked\":" << ev.value << "}}";
      break;
    case EventKind::kDeadlockDetected: {
      event_prefix("i", ev.flag ? "DEADLOCK (watchdog)" : "DEADLOCK",
                   "detector", ts, kPacketTrack);
      os_ << ",\"s\":\"g\",\"args\":{\"packets\":[";
      for (std::size_t i = 0; i < ev.list.size(); ++i) {
        if (i) os_ << ',';
        os_ << ev.list[i];
      }
      os_ << "]}}";
      break;
    }
    case EventKind::kFault:
    case EventKind::kRepair: {
      event_prefix("i", ev.kind == EventKind::kFault ? "FAULT" : "repair",
                   "fault", ts, kPacketTrack);
      os_ << ",\"s\":\"g\",\"args\":{\"epoch\":" << ev.value
          << ",\"channels\":[";
      for (std::size_t i = 0; i < ev.list.size(); ++i) {
        if (i) os_ << ',';
        os_ << ev.list[i];
      }
      os_ << "]}}";
      break;
    }
    case EventKind::kAbort: {
      event_prefix("i", "abort pkt" + std::to_string(ev.packet), "recovery",
                   ts, kPacketTrack);
      os_ << ",\"s\":\"t\",\"args\":{\"pkt\":" << ev.packet
          << ",\"attempt\":" << ev.value
          << ",\"retry\":" << (ev.flag ? "true" : "false") << "}}";
      if (!ev.flag) {
        // No retry scheduled: the packet is dropped, so close its span the
        // way kPacketDone would — otherwise it dangles to trace end.
        const auto it = packet_labels_.find(ev.packet);
        const std::string label =
            it != packet_labels_.end() ? it->second
                                       : "pkt" + std::to_string(ev.packet);
        event_prefix("e", label, "packet", ts, kPacketTrack);
        os_ << ",\"id\":" << ev.packet << ",\"args\":{\"dropped\":true}}";
        if (it != packet_labels_.end()) packet_labels_.erase(it);
      }
      break;
    }
    case EventKind::kRetry:
      event_prefix("i", "retry pkt" + std::to_string(ev.packet), "recovery",
                   ts, kPacketTrack);
      os_ << ",\"s\":\"t\",\"args\":{\"pkt\":" << ev.packet
          << ",\"attempt\":" << ev.value << "}}";
      break;
    case EventKind::kRecovered:
      event_prefix("i", "recovered pkt" + std::to_string(ev.packet),
                   "recovery", ts, kPacketTrack);
      os_ << ",\"s\":\"t\",\"args\":{\"pkt\":" << ev.packet
          << ",\"attempts\":" << ev.value << "}}";
      break;
    case EventKind::kSwitch:
    case EventKind::kRollback:
    case EventKind::kDrainSwitch: {
      event_prefix("i",
                   ev.kind == EventKind::kSwitch
                       ? "SWITCH"
                       : (ev.kind == EventKind::kRollback ? "ROLLBACK"
                                                          : "DRAIN-SWITCH"),
                   "reconfig", ts, kPacketTrack);
      os_ << ",\"s\":\"g\",\"args\":{\"epoch\":" << ev.value
          << ",\"dests\":[";
      for (std::size_t i = 0; i < ev.list.size(); ++i) {
        if (i) os_ << ',';
        os_ << ev.list[i];
      }
      os_ << "]}}";
      break;
    }
    case EventKind::kRelease:
    case EventKind::kWaitVoid:
    case EventKind::kDrop:
      break;  // recorder-only
  }
}

void ChromeTraceSink::flush() { os_.flush(); }

}  // namespace wormnet::obs
