// no-training-forward: serving code must call the const infer() path.
namespace anole::core {

struct Net {
  int forward(int x) { return x; }
  int infer(int x) const { return x; }
};

int serve(Net& net, Net* other) {
  int a = net.forward(1);       // FIXTURE: fires
  int b = other->forward(2);    // FIXTURE: fires
  int c = net.infer(3);         // ok: the const path
  const char* text = "net.forward(4)";  // ok: string literal
  // net.forward(5) in a comment is ok
  return a + b + c + (text != nullptr ? 1 : 0);
}

}  // namespace anole::core
