#include "edgeos/sharing.hpp"

#include "telemetry/telemetry.hpp"

namespace vdap::edgeos {

void DataSharingBus::note_grant(const char* op, const std::string& topic,
                                const std::string& service) {
  if (!telemetry::on()) return;
  telemetry::tracer().instant(now(), "sharing", "sharing.grant", "sharing",
                              telemetry::TraceArgs()
                                  .add("op", op)
                                  .add("service", service)
                                  .add("topic", topic));
  telemetry::count("sharing.grants", {{"op", op}});
}

void DataSharingBus::note_deny(const char* op, const char* reason,
                               const std::string& topic,
                               const std::string& service) {
  if (!telemetry::on()) return;
  telemetry::tracer().instant(now(), "sharing", "sharing.deny", "sharing",
                              telemetry::TraceArgs()
                                  .add("op", op)
                                  .add("reason", reason)
                                  .add("service", service)
                                  .add("topic", topic));
  telemetry::count("sharing.denials", {{"reason", reason}});
}

std::uint64_t DataSharingBus::enroll(const std::string& service) {
  std::uint64_t cred = next_credential_;
  next_credential_ =
      next_credential_ * 2862933555777941757ULL + 3037000493ULL;
  credentials_[service] = cred;
  telemetry::count("sharing.enrollments");
  return cred;
}

bool DataSharingBus::enrolled(const std::string& service) const {
  return credentials_.count(service) > 0;
}

void DataSharingBus::grant_publish(const std::string& topic,
                                   const std::string& service) {
  pub_acl_[topic].insert(service);
  note_grant("publish", topic, service);
}

void DataSharingBus::grant_subscribe(const std::string& topic,
                                     const std::string& service) {
  sub_acl_[topic].insert(service);
  note_grant("subscribe", topic, service);
}

void DataSharingBus::revoke_publish(const std::string& topic,
                                    const std::string& service) {
  auto it = pub_acl_.find(topic);
  if (it != pub_acl_.end()) it->second.erase(service);
}

void DataSharingBus::revoke_subscribe(const std::string& topic,
                                      const std::string& service) {
  auto it = sub_acl_.find(topic);
  if (it != sub_acl_.end()) it->second.erase(service);
  auto sit = subs_.find(topic);
  if (sit != subs_.end()) {
    auto& v = sit->second;
    for (auto i = v.begin(); i != v.end();) {
      i = i->service == service ? v.erase(i) : i + 1;
    }
  }
}

bool DataSharingBus::can_publish(const std::string& topic,
                                 const std::string& service) const {
  auto it = pub_acl_.find(topic);
  return it != pub_acl_.end() && it->second.count(service) > 0;
}

bool DataSharingBus::can_subscribe(const std::string& topic,
                                   const std::string& service) const {
  auto it = sub_acl_.find(topic);
  return it != sub_acl_.end() && it->second.count(service) > 0;
}

bool DataSharingBus::authenticate(const std::string& service,
                                  std::uint64_t credential) const {
  auto it = credentials_.find(service);
  return it != credentials_.end() && it->second == credential;
}

int DataSharingBus::publish(const std::string& service,
                            std::uint64_t credential,
                            const std::string& topic, json::Value payload) {
  if (!authenticate(service, credential)) {
    ++rejected_auth_;
    note_deny("publish", "auth", topic, service);
    return -1;
  }
  if (!can_publish(topic, service)) {
    ++rejected_acl_;
    note_deny("publish", "acl", topic, service);
    return -1;
  }
  ++published_;
  telemetry::count("sharing.published", {{"topic", topic}});
  SharedMessage msg;
  msg.topic = topic;
  msg.publisher = service;
  msg.payload = std::move(payload);
  msg.seq = ++seq_;
  int count = 0;
  auto it = subs_.find(topic);
  if (it != subs_.end()) {
    for (const Subscription& s : it->second) {
      s.handler(msg);
      ++count;
      ++delivered_;
    }
  }
  telemetry::count("sharing.delivered", count);
  return count;
}

bool DataSharingBus::subscribe(const std::string& service,
                               std::uint64_t credential,
                               const std::string& topic, Handler handler) {
  if (!authenticate(service, credential)) {
    ++rejected_auth_;
    note_deny("subscribe", "auth", topic, service);
    return false;
  }
  if (!can_subscribe(topic, service)) {
    ++rejected_acl_;
    note_deny("subscribe", "acl", topic, service);
    return false;
  }
  subs_[topic].push_back({service, std::move(handler)});
  telemetry::count("sharing.subscriptions", {{"topic", topic}});
  return true;
}

}  // namespace vdap::edgeos
