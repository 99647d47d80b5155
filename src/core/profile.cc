#include "src/core/profile.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/core/parse_number.h"

namespace osprof {

void ProfileSet::const_iterator::SkipInvisible() {
  const auto end = set_->table_.by_name().end();
  while (it_ != end && !set_->Visible(it_->second)) {
    ++it_;
  }
}

ProbeHandle ProfileSet::Resolve(std::string_view op) {
  const OpId existing = table_.Find(op);
  if (existing != kInvalidOpId) {
    return ProbeHandle(existing);
  }
  const OpId id = table_.Intern(op);
  profiles_.emplace_back(std::string(op), resolution_);
  declared_.push_back(false);
  return ProbeHandle(id);
}

Profile& ProfileSet::operator[](std::string_view op) {
  const OpId id = Resolve(op).id();
  declared_[static_cast<std::size_t>(id)] = true;
  return ById(id);
}

const Profile* ProfileSet::Find(std::string_view op) const {
  const OpId id = table_.Find(op);
  if (id == kInvalidOpId || !Visible(id)) {
    return nullptr;
  }
  return &ById(id);
}

void ProfileSet::Merge(const ProfileSet& other) {
  if (other.resolution_ != resolution_) {
    throw std::invalid_argument(
        "ProfileSet::Merge: profile sets differ in resolution");
  }
  for (const auto& [name, profile] : other) {
    (*this)[name].Merge(profile);
  }
}

void ProfileSet::ClearCounts() {
  for (Profile& profile : profiles_) {
    profile.histogram().Clear();
  }
  declared_.assign(declared_.size(), false);
}

std::size_t ProfileSet::size() const {
  std::size_t count = 0;
  for (OpId id = 0; id < static_cast<OpId>(profiles_.size()); ++id) {
    if (Visible(id)) {
      ++count;
    }
  }
  return count;
}

std::vector<std::string> ProfileSet::OperationNames() const {
  std::vector<std::string> names;
  names.reserve(table_.size());
  for (const auto& [name, profile] : *this) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> ProfileSet::ByTotalLatency() const {
  std::vector<std::string> names = OperationNames();
  std::sort(names.begin(), names.end(),
            [this](const std::string& a, const std::string& b) {
              const Cycles la = Find(a)->total_latency();
              const Cycles lb = Find(b)->total_latency();
              if (la != lb) {
                return la > lb;
              }
              return a < b;
            });
  return names;
}

Cycles ProfileSet::TotalLatency() const {
  Cycles sum = 0;
  for (const auto& [name, profile] : *this) {
    sum += profile.total_latency();
  }
  return sum;
}

std::uint64_t ProfileSet::TotalOperations() const {
  std::uint64_t sum = 0;
  for (const auto& [name, profile] : *this) {
    sum += profile.total_operations();
  }
  return sum;
}

void ProfileSet::Serialize(std::ostream& os) const {
  os << "# osprof profile set v1\n";
  os << "resolution " << resolution_ << "\n";
  for (const auto& [name, profile] : *this) {
    const Histogram& h = profile.histogram();
    os << "profile " << name << " recorded=" << h.recorded()
       << " total_latency=" << h.total_latency() << "\n";
    for (int b = 0; b < h.num_buckets(); ++b) {
      if (h.bucket(b) != 0) {
        os << "  bucket " << b << " " << h.bucket(b) << "\n";
      }
    }
    os << "end\n";
  }
}

std::string ProfileSet::ToString() const {
  std::ostringstream os;
  Serialize(os);
  return os.str();
}

ProfileSet ProfileSet::Parse(std::istream& is) {
  std::string line;
  int resolution = 1;
  ProfileSet set(1);
  // Parse by id, not Profile*: operator[] growth may reallocate the slots.
  OpId current = kInvalidOpId;
  std::uint64_t current_recorded = 0;
  std::uint64_t current_total_latency = 0;
  bool saw_resolution = false;
  int lineno = 0;

  auto fail = [&lineno](const std::string& msg) {
    throw std::runtime_error("ProfileSet::Parse line " +
                             std::to_string(lineno) + ": " + msg);
  };

  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok) || tok[0] == '#') {
      continue;
    }
    if (tok == "resolution") {
      if (!ReadNumber(ls, resolution)) {
        fail("malformed resolution");
      }
      if (saw_resolution) {
        fail("duplicate resolution line");
      }
      saw_resolution = true;
      set = ProfileSet(resolution);
      current = kInvalidOpId;
    } else if (tok == "profile") {
      std::string name;
      if (!(ls >> name)) {
        fail("profile line missing name");
      }
      set[name];  // Declare, so empty profiles round-trip byte-identically.
      current = set.table_.Find(name);
      current_recorded = 0;
      current_total_latency = 0;
      std::string kv;
      while (ls >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) {
          fail("malformed key=value: " + kv);
        }
        const std::string key = kv.substr(0, eq);
        const std::optional<std::uint64_t> value =
            ParseNumber<std::uint64_t>(std::string_view(kv).substr(eq + 1));
        if (!value) {
          fail("malformed number: " + kv);
        }
        if (key == "recorded") {
          current_recorded = *value;
        } else if (key == "total_latency") {
          current_total_latency = *value;
        } else {
          fail("unknown profile attribute: " + key);
        }
      }
    } else if (tok == "bucket") {
      if (current == kInvalidOpId) {
        fail("bucket outside profile block");
      }
      int index = 0;
      std::uint64_t count = 0;
      if (!ReadNumber(ls, index) || !ReadNumber(ls, count)) {
        fail("malformed bucket line");
      }
      Histogram& h = set.ById(current).histogram();
      if (index < 0 || index >= h.num_buckets()) {
        fail("bucket index out of range");
      }
      h.set_bucket(index, count);
    } else if (tok == "end") {
      if (current == kInvalidOpId) {
        fail("end outside profile block");
      }
      set.ById(current).histogram().SetTotals(current_recorded,
                                              current_total_latency);
      current = kInvalidOpId;
    } else {
      fail("unknown directive: " + tok);
    }
  }
  if (current != kInvalidOpId) {
    fail("unterminated profile block");
  }
  return set;
}

ProfileSet ProfileSet::ParseString(const std::string& text) {
  std::istringstream is(text);
  return Parse(is);
}

bool ProfileSet::CheckConsistency() const {
  for (const Profile& profile : profiles_) {
    if (!profile.histogram().CheckConsistency()) {
      return false;
    }
  }
  return true;
}

}  // namespace osprof
